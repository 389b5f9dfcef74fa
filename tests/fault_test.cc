// Fault-injection and recovery tests (DESIGN.md "Fault handling &
// degradation"):
//
//   * fault matrix — seeded fault rates over the buffer and over the full
//     service stack must yield answers byte-identical to a fault-free run;
//   * graceful degradation — a hole that exhausts its retry budget becomes
//     an #unavailable node with a typed latched Status; the rest of the
//     tree, and sibling sessions, stay navigable;
//   * hand-crafted malformed FillMany responses are rejected before any
//     splice (the regression for the old MIX_CHECK aborts);
//   * executor-deadline-vs-retry interaction — backoff never outlives the
//     command budget, and a deadline-cut hole stays retryable;
//   * client-side retry over a fault-injecting FrameTransport;
//   * the command-path idle-TTL sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/fault_wrapper.h"
#include "buffer/lxp.h"
#include "client/framed_document.h"
#include "net/fault.h"
#include "net/sim_net.h"
#include "service/fault_transport.h"
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
using buffer::Fragment;
using buffer::FragmentList;
using buffer::HoleFill;
using buffer::HoleFillList;
using buffer::LxpWrapper;
using buffer::ScriptedLxpWrapper;
using client::FramedDocument;
using wire::Frame;
using wire::MsgType;

constexpr int64_t kMs = 1'000'000;

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

/// The liberal LXP trace of Example 7 for t = a[b[d,e],c].
ScriptedLxpWrapper MakeExample7Wrapper() {
  std::map<std::string, FragmentList> fills;
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

// ---------------------------------------------------------------------------
// Fault matrix: transient faults + retries == byte-identical answers.
// ---------------------------------------------------------------------------

// Buffer level: a fault-injecting wrapper at seeded rates p ∈ {0.05, 0.2};
// with enough retry budget the materialized view is byte-equal to the
// fault-free run and no hole degrades. Retry/backoff accounting is exact:
// every observed fault was recovered by exactly one re-issue, and backoff
// cost simulated time.
TEST(FaultMatrixTest, BufferRecoversByteExactly) {
  auto homes = testing::Doc(kHomes);
  wrappers::XmlLxpWrapper clean(homes.get());
  BufferComponent baseline(&clean, "homes.xml");
  const std::string expected = testing::MaterializeToTerm(&baseline);

  int64_t total_faults = 0;
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
      BufferComponent buf(&faulty, "homes.xml", opts);

      EXPECT_EQ(testing::MaterializeToTerm(&buf), expected)
          << "p=" << p << " seed=" << seed;
      BufferComponent::Stats st = buf.stats();
      EXPECT_EQ(st.degraded_holes, 0);
      EXPECT_TRUE(buf.TakeStatus().ok());
      // Every fault recovered: each failure was followed by one re-issue.
      EXPECT_EQ(st.retries, st.faults);
      if (st.faults > 0) {
        EXPECT_GT(st.backoff_ns, 0);
        EXPECT_GT(clock.now_ns(), 0);
      }
      total_faults += st.faults;
    }
  }
  // The schedule is deterministic: across the matrix, faults definitely hit.
  EXPECT_GT(total_faults, 0);
}

// Service level: per-session fault injection on both sources; the framed
// Fig. 3 answer is still byte-identical, and the recovery shows up in the
// service-wide fault counters.
TEST(FaultMatrixTest, ServiceAnswerByteIdenticalUnderInjectedFaults) {
  for (double p : {0.05, 0.2}) {
    auto homes = testing::Doc(kHomes);
    auto schools = testing::Doc(kSchools);
    SessionEnvironment env;
    SessionEnvironment::WrapperOptions wo;
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
    MediatorService service(&env, {});

    auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
    EXPECT_EQ(testing::MaterializeToTerm(doc.get()), kExpectedAnswer)
        << "p=" << p;
    EXPECT_TRUE(doc->last_status().ok());

    ServiceMetricsSnapshot snap = service.Metrics();
    EXPECT_GT(snap.source_faults, 0);
    EXPECT_GT(snap.source_retries, 0);
    EXPECT_EQ(snap.degraded_holes, 0);
    EXPECT_NE(snap.ToString().find("faults{"), std::string::npos);
  }
}

// Deterministic fail-N-then-succeed: the first two exchanges per operation
// fail; retries absorb all of them and the answer is exact.
TEST(FaultMatrixTest, FailFirstNThenSucceed) {
  ScriptedLxpWrapper inner = MakeExample7Wrapper();
  net::FaultSpec spec;
  spec.fail_first_n = 2;
  FaultyLxpWrapper faulty(&inner, spec, /*seed=*/99);

  net::SimClock clock;
  faulty.AttachClock(&clock);
  BufferComponent::Options opts;
  opts.clock = &clock;
  opts.retry.max_attempts = 4;
  opts.retry.jitter = 0;
  BufferComponent buf(&faulty, "u", opts);

  EXPECT_EQ(testing::MaterializeToTerm(&buf), "a[b[d,e],c]");
  BufferComponent::Stats st = buf.stats();
  EXPECT_GT(st.faults, 0);
  EXPECT_EQ(st.retries, st.faults);
  EXPECT_EQ(st.degraded_holes, 0);
  EXPECT_TRUE(buf.TakeStatus().ok());
}

// ---------------------------------------------------------------------------
// Graceful degradation: exhausted retries isolate, never propagate.
// ---------------------------------------------------------------------------

/// Fails every TryFill for one specific hole id; everything else passes
/// through — a source with one permanently broken page.
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
  Status TryFill(const std::string& hole_id, FragmentList* out) override {
    if (hole_id == bad_) return Status::Unavailable("source refused " + bad_);
    return inner_->TryFill(hole_id, out);
  }

 private:
  LxpWrapper* inner_;
  std::string bad_;
};

TEST(FaultDegradeTest, ExhaustedRetriesDegradeOnlyTheFailingSubtree) {
  ScriptedLxpWrapper inner = MakeExample7Wrapper();
  SelectiveFailWrapper wrapper(&inner, "h3");  // h3 would fill to [c]

  net::SimClock clock;
  BufferComponent::Options opts;
  opts.clock = &clock;
  opts.retry.max_attempts = 2;
  opts.retry.jitter = 0;
  BufferComponent buf(&wrapper, "u", opts);

  NodeId a = buf.Root();
  ASSERT_TRUE(a.valid());
  auto b = buf.Down(a);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(buf.Fetch(*b), "b");

  // Right of b chases h3, which exhausts its two attempts: the hole
  // degrades into a real #unavailable node instead of aborting.
  auto sib = buf.Right(*b);
  ASSERT_TRUE(sib.has_value());
  EXPECT_EQ(buf.Fetch(*sib), "#unavailable");
  Status s = buf.TakeStatus();
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_EQ(buf.degraded_holes(), 1);

  // The unavailable node is a leaf and ends the sibling list.
  EXPECT_FALSE(buf.Down(*sib).has_value());

  // The rest of the tree is untouched and fully navigable.
  buf.TakeStatus();  // drain the latches from probing the unavailable node
  auto d = buf.Down(*b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(buf.Fetch(*d), "d");
  auto e = buf.Right(*d);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(buf.Fetch(*e), "e");
  EXPECT_TRUE(buf.TakeStatus().ok());

  BufferComponent::Stats st = buf.stats();
  EXPECT_EQ(st.faults, 2);   // both attempts at h3 failed
  EXPECT_EQ(st.retries, 1);  // one re-issue before giving up
}

/// A source that refuses every exchange — the first session's wrapper in
/// the isolation test below.
class RefusingWrapper : public LxpWrapper {
 public:
  std::string GetRoot(const std::string&) override { return "r"; }
  FragmentList Fill(const std::string&) override { return {}; }
  Status TryGetRoot(const std::string&, std::string*) override {
    return Status::Unavailable("source down");
  }
  Status TryFill(const std::string&, FragmentList*) override {
    return Status::Unavailable("source down");
  }
  Status TryFillMany(const std::vector<std::string>&, const FillBudget&,
                     HoleFillList*) override {
    return Status::Unavailable("source down");
  }
};

TEST(FaultDegradeTest, SiblingSessionsStayIsolated) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  SessionEnvironment env;
  SessionEnvironment::WrapperOptions wo;
  wo.retry.max_attempts = 2;
  wo.retry.jitter = 0;
  // The first session built gets a dead homes source; later ones are fine.
  std::atomic<int> built{0};
  env.RegisterWrapperFactory(
      "homesSrc",
      [&built, &homes]() -> std::unique_ptr<LxpWrapper> {
        if (built.fetch_add(1) == 0) return std::make_unique<RefusingWrapper>();
        return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
      },
      "homes.xml", wo);
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&schools] {
        return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
      },
      "schools.xml", wo);
  MediatorService service(&env, {});

  auto broken = FramedDocument::Open(&service, kFig3).ValueOrDie();
  NodeId broken_root = broken->Root();
  ASSERT_TRUE(broken_root.valid());
  // Fetching the root resolves the first binding through homesSrc, whose
  // retries exhaust: the command comes back as a typed error frame (never
  // an abort) and yields ⊥.
  EXPECT_EQ(broken->Fetch(broken_root), "");
  EXPECT_EQ(broken->last_status().code(), Status::Code::kUnavailable);
  // The session survives its degraded source: the answer shell (with no
  // med_home bindings to mediate) is still served.
  broken->clear_last_status();
  std::vector<SubtreeEntry> entries;
  broken->FetchSubtree(broken_root, -1, &entries);
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(std::string(entries[0].label.name()), "answer");
  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_GE(snap.degraded_holes, 1);
  EXPECT_GT(snap.source_faults, 0);

  // A sibling session opened while the first one is degraded gets its own
  // (healthy) wrapper instance and the exact answer.
  auto healthy = FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(healthy.get()), kExpectedAnswer);
  EXPECT_TRUE(healthy->last_status().ok());
}

// ---------------------------------------------------------------------------
// Regression: hand-crafted malformed FillMany responses (the cases that
// used to MIX_CHECK-abort) are rejected with a typed Status before any
// splice, degrading only the requested hole.
// ---------------------------------------------------------------------------

enum class BadBatchMode {
  kUnknownHole,      ///< entry refines a hole the buffer never saw
  kDuplicateEntry,   ///< same hole refined twice in one response
  kMissingRequested, ///< a requested hole goes unanswered
  kAdjacentHoles,    ///< fragments with two adjacent holes
  kAllHoles,         ///< non-empty fill consisting only of holes
  kReusedId,         ///< fill re-introduces the id being refined
};

class BadBatchWrapper : public LxpWrapper {
 public:
  explicit BadBatchWrapper(BadBatchMode mode) : mode_(mode) {}

  std::string GetRoot(const std::string&) override { return "r"; }
  FragmentList Fill(const std::string& hole_id) override {
    if (hole_id == "r") {
      return {Fragment::Element("a", {Fragment::Hole("h1")})};
    }
    return {Fragment::Element("x")};
  }
  HoleFillList FillMany(const std::vector<std::string>&,
                        const FillBudget&) override {
    switch (mode_) {
      case BadBatchMode::kUnknownHole:
        return {{"zzz", {Fragment::Element("x")}}};
      case BadBatchMode::kDuplicateEntry:
        return {{"h1", {Fragment::Element("x")}},
                {"h1", {Fragment::Element("y")}}};
      case BadBatchMode::kMissingRequested:
        return {};
      case BadBatchMode::kAdjacentHoles:
        return {{"h1",
                 {Fragment::Element("x"), Fragment::Hole("n1"),
                  Fragment::Hole("n2")}}};
      case BadBatchMode::kAllHoles:
        return {{"h1", {Fragment::Hole("n1")}}};
      case BadBatchMode::kReusedId:
        return {{"h1", {Fragment::Element("x"), Fragment::Hole("h1")}}};
    }
    return {};
  }

 private:
  BadBatchMode mode_;
};

TEST(BadBatchTest, HandCraftedBatchResponsesAreRejectedWithStatus) {
  struct Case {
    BadBatchMode mode;
    const char* expect_substring;
  };
  const Case cases[] = {
      {BadBatchMode::kUnknownHole, "unknown or already-filled"},
      {BadBatchMode::kDuplicateEntry, "refined twice"},
      {BadBatchMode::kMissingRequested, "not answered"},
      {BadBatchMode::kAdjacentHoles, "adjacent holes"},
      {BadBatchMode::kAllHoles, "only of holes"},
      {BadBatchMode::kReusedId, "reused hole id"},
  };
  for (const Case& c : cases) {
    BadBatchWrapper wrapper(c.mode);
    BufferComponent buf(&wrapper, "u");
    NodeId a = buf.Root();
    ASSERT_TRUE(a.valid());

    // DownAll drives the batch path: the crafted response must be rejected
    // as a whole, before any splice, and h1 degrades to #unavailable.
    std::vector<NodeId> kids;
    buf.DownAll(a, &kids);
    Status s = buf.TakeStatus();
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument)
        << "mode=" << static_cast<int>(c.mode) << ": " << s.ToString();
    EXPECT_NE(s.message().find(c.expect_substring), std::string::npos)
        << "mode=" << static_cast<int>(c.mode) << ": " << s.ToString();
    EXPECT_EQ(buf.degraded_holes(), 1);
    ASSERT_EQ(kids.size(), 1u);
    EXPECT_EQ(buf.Fetch(kids[0]), "#unavailable");
    // A rejected batch never half-applies: nothing but the degraded node
    // joined the tree.
    EXPECT_EQ(buf.holes_outstanding(), 0);
  }
}

// ---------------------------------------------------------------------------
// Deadline vs. retry.
// ---------------------------------------------------------------------------

/// Fails every fill while the shared flag is set — a source outage with a
/// recovery the test controls.
class ToggleFailWrapper : public LxpWrapper {
 public:
  ToggleFailWrapper(LxpWrapper* inner, std::atomic<bool>* failing)
      : inner_(inner), failing_(failing) {}
  ToggleFailWrapper(std::unique_ptr<LxpWrapper> inner,
                    std::atomic<bool>* failing)
      : owned_(std::move(inner)), inner_(owned_.get()), failing_(failing) {}

  std::string GetRoot(const std::string& uri) override {
    return inner_->GetRoot(uri);
  }
  FragmentList Fill(const std::string& hole_id) override {
    return inner_->Fill(hole_id);
  }
  Status TryFill(const std::string& hole_id, FragmentList* out) override {
    if (failing_->load()) return Status::Unavailable("outage");
    return inner_->TryFill(hole_id, out);
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const FillBudget& budget, HoleFillList* out) override {
    if (failing_->load()) return Status::Unavailable("outage");
    return inner_->TryFillMany(holes, budget, out);
  }

 private:
  std::unique_ptr<LxpWrapper> owned_;
  LxpWrapper* inner_;
  std::atomic<bool>* failing_;
};

// Buffer level: a backoff that would overrun the command budget is never
// started — the command fails kDeadlineExceeded, the hole stays intact
// (NOT degraded), and a later better-funded command recovers fully.
TEST(DeadlineTest, BackoffNeverOutlivesCommandBudget) {
  ScriptedLxpWrapper inner = MakeExample7Wrapper();
  std::atomic<bool> failing{true};
  ToggleFailWrapper wrapper(&inner, &failing);

  net::SimClock clock;
  BufferComponent::Options opts;
  opts.clock = &clock;
  opts.retry.max_attempts = 10;
  opts.retry.initial_backoff_ns = 10 * kMs;
  opts.retry.backoff_multiplier = 2.0;
  opts.retry.jitter = 0;
  BufferComponent buf(&wrapper, "u", opts);

  buf.SetCommandBudgetNs(25 * kMs);
  // Attempt at t=0 fails; backoff 10ms; attempt at t=10ms fails; the next
  // backoff (20ms) would end past the 25ms budget, so it never starts.
  NodeId r = buf.Root();
  EXPECT_FALSE(r.valid());
  Status s = buf.TakeStatus();
  EXPECT_EQ(s.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(buf.degraded_holes(), 0);  // deadline-cut holes stay retryable
  EXPECT_LE(clock.now_ns(), 25 * kMs);

  BufferComponent::Stats st = buf.stats();
  EXPECT_EQ(st.faults, 2);
  EXPECT_EQ(st.retries, 1);
  EXPECT_EQ(st.backoff_ns, 10 * kMs);

  // Outage over, budget cleared: the same hole fills and the view is exact.
  failing = false;
  buf.SetCommandBudgetNs(-1);
  r = buf.Root();
  EXPECT_TRUE(r.valid());
  EXPECT_EQ(testing::MaterializeToTerm(&buf), "a[b[d,e],c]");
  EXPECT_TRUE(buf.TakeStatus().ok());
}

// Service level: the executor deadline propagates into the retry loop as a
// virtual fill deadline. During an outage a deadlined command reports
// kDeadlineExceeded (typed, no abort, nothing degraded); after the outage
// the same session produces the exact answer.
TEST(DeadlineTest, ServiceDeadlineCutsRetryAndLeavesSessionUsable) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  std::atomic<bool> failing{false};
  SessionEnvironment env;
  SessionEnvironment::WrapperOptions wo;
  wo.retry.max_attempts = 1000;  // attempts never exhaust: only the deadline
  wo.retry.initial_backoff_ns = 1 * kMs;
  wo.retry.jitter = 0;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&failing, &homes]() -> std::unique_ptr<LxpWrapper> {
        return std::make_unique<ToggleFailWrapper>(
            std::make_unique<wrappers::XmlLxpWrapper>(homes.get()), &failing);
      },
      "homes.xml", wo);
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&schools] {
        return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
      },
      "schools.xml", wo);
  MediatorService service(&env, {});

  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  NodeId root = doc->Root();
  ASSERT_TRUE(root.valid());

  failing = true;
  doc->set_deadline_ns(50 * kMs);
  std::vector<NodeId> kids;
  doc->DownAll(root, &kids);
  EXPECT_TRUE(kids.empty());
  EXPECT_EQ(doc->last_status().code(), Status::Code::kDeadlineExceeded);
  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.degraded_holes, 0);

  // Outage over. The deadline-cut session stays navigable (it serves the
  // degraded answer shell its operators computed during the cut command —
  // mediator operator caches memoize binding enumerations, so in-place
  // retry stops at the buffer layer; see the buffer-level test above).
  failing = false;
  doc->set_deadline_ns(0);
  doc->clear_last_status();
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()), "answer");

  // Service-level recovery granularity is a fresh session: its brand-new
  // buffers re-fill from the recovered source and the answer is exact.
  auto fresh = FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(fresh.get()), kExpectedAnswer);
  EXPECT_TRUE(fresh->last_status().ok());
  snap = service.Metrics();
  EXPECT_GT(snap.source_faults, 0);
  EXPECT_EQ(snap.degraded_holes, 0);
}

// ---------------------------------------------------------------------------
// Client-side retry over a faulty wire.
// ---------------------------------------------------------------------------

TEST(ClientRetryTest, TransportFaultsAreRetriedToByteEquality) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  SessionEnvironment env;
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
  MediatorService service(&env, {});

  net::FaultSpec spec;
  spec.p_fail = 0.1;
  spec.p_truncate = 0.1;
  spec.p_garble = 0.1;
  spec.p_duplicate = 0.1;
  FaultyFrameTransport flaky(&service, spec, /*seed=*/7);

  net::RetryOptions retry;
  retry.max_attempts = 10;
  auto doc = FramedDocument::Open(&flaky, kFig3, /*deadline_ns=*/0, retry)
                 .ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()), kExpectedAnswer);
  EXPECT_TRUE(doc->last_status().ok());
  EXPECT_GT(flaky.policy().counters().injected(), 0);
  EXPECT_GT(doc->retries(), 0);
  EXPECT_TRUE(doc->Close().ok());
}

// ---------------------------------------------------------------------------
// Idle-TTL sweep from the command path.
// ---------------------------------------------------------------------------

TEST(EvictionTest, CommandPathSweepsIdleSessions) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  SessionEnvironment env;
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
  MediatorService::Options options;
  options.session_idle_ttl_ns = 40 * kMs;
  MediatorService service(&env, options);

  auto idle = FramedDocument::Open(&service, kFig3).ValueOrDie();
  auto active = FramedDocument::Open(&service, kFig3).ValueOrDie();
  ASSERT_EQ(service.registry().LiveIds().size(), 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  // No Open happens — the sweep must run from the command/execute path.
  // The serving session is touched and excluded; the abandoned one goes.
  NodeId root = active->Root();
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(active->Fetch(root), "answer");
  EXPECT_TRUE(active->last_status().ok());

  std::vector<uint64_t> live = service.registry().LiveIds();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0], active->session_id());
  EXPECT_EQ(service.registry().counters().evicted, 1);

  // The evicted session answers ⊥ / kNotFound, never crashes.
  EXPECT_FALSE(idle->Root().valid());
  EXPECT_EQ(idle->last_status().code(), Status::Code::kNotFound);
}

}  // namespace
}  // namespace mix::service
