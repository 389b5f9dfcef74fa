// Integration tests for the mixd service layer: session lifecycle, framed
// navigation equivalence against in-process evaluation (the Fig. 3 running
// example), deadline expiry, overload rejection, remote-LXP serving, and a
// multi-worker concurrency smoke test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/fault_wrapper.h"
#include "client/client.h"
#include "client/framed_document.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "rdb/database.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wire.h"
#include "test_util.h"
#include "wrappers/relational_wrapper.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"

namespace mix::service {
namespace {

using client::FramedDocument;
using wire::Frame;
using wire::MsgType;

// The Fig. 3 running example (same fixture as tests/mediator_test.cc).
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

/// Decorator that sleeps in Fetch — a "distant source" that makes one
/// navigation command take long enough to pile requests up behind it.
class SlowNavigable : public Navigable {
 public:
  SlowNavigable(Navigable* inner, std::chrono::milliseconds delay)
      : inner_(inner), delay_(delay) {}

  NodeId Root() override { return inner_->Root(); }
  std::optional<NodeId> Down(const NodeId& p) override {
    return inner_->Down(p);
  }
  std::optional<NodeId> Right(const NodeId& p) override {
    return inner_->Right(p);
  }
  Label Fetch(const NodeId& p) override {
    std::this_thread::sleep_for(delay_);
    return inner_->Fetch(p);
  }

 private:
  Navigable* inner_;
  std::chrono::milliseconds delay_;
};

/// A kFetch request for `doc`'s root — the command the deadline/overload
/// tests queue up (Fetch resolves the first binding through the sources, so
/// it is the slow one when a source is slow).
std::optional<Frame> MakeFetchRoot(FramedDocument* doc) {
  Frame f;
  f.type = MsgType::kFetch;
  f.session = doc->session_id();
  f.node = doc->Root();
  if (!f.node.valid()) return std::nullopt;
  return f;
}

/// Environment with per-session wrapper-backed homes/schools sources (the
/// full service stack: session-private BufferComponents over XmlLxpWrapper).
class ServiceFixture {
 public:
  ServiceFixture() : homes_(testing::Doc(kHomes)), schools_(testing::Doc(kSchools)) {
    env_.RegisterWrapperFactory(
        "homesSrc",
        [this] { return std::make_unique<wrappers::XmlLxpWrapper>(homes_.get()); },
        "homes.xml");
    env_.RegisterWrapperFactory(
        "schoolsSrc",
        [this] { return std::make_unique<wrappers::XmlLxpWrapper>(schools_.get()); },
        "schools.xml");
  }

  SessionEnvironment& env() { return env_; }
  const xml::Document* homes() const { return homes_.get(); }

 private:
  std::unique_ptr<xml::Document> homes_;
  std::unique_ptr<xml::Document> schools_;
  SessionEnvironment env_;
};

TEST(ServiceTest, SessionLifecycle) {
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});

  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_NE(doc->session_id(), 0u);
  EXPECT_EQ(service.registry().LiveIds().size(), 1u);

  NodeId root = doc->Root();
  EXPECT_TRUE(root.valid());
  EXPECT_EQ(doc->Fetch(root), "answer");
  EXPECT_TRUE(doc->last_status().ok());

  EXPECT_TRUE(doc->Close().ok());
  EXPECT_EQ(service.registry().LiveIds().size(), 0u);

  // Navigation after close: ⊥ result, kNotFound latched, no crash.
  EXPECT_FALSE(doc->Down(root).has_value());
  EXPECT_EQ(doc->last_status().code(), Status::Code::kNotFound);
  // Second close reports the server's kNotFound.
  EXPECT_EQ(doc->Close().code(), Status::Code::kNotFound);

  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.sessions_opened, 1);
  EXPECT_EQ(snap.sessions_closed, 1);
  EXPECT_EQ(snap.sessions_open, 0);
  EXPECT_GT(snap.frames_in, 0);
  EXPECT_EQ(snap.frames_in, snap.frames_out);
}

TEST(ServiceTest, OpenRejectsBadQuery) {
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});
  auto doc = FramedDocument::Open(&service, "THIS IS NOT XMAS");
  EXPECT_FALSE(doc.ok());
}

TEST(ServiceTest, FramedAnswerMatchesInProcessEvaluation) {
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});

  // In-process evaluation of the same plan over the same documents.
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  mediator::SourceRegistry sources;
  sources.Register("homesSrc", &homes_nav);
  sources.Register("schoolsSrc", &schools_nav);
  auto plan = mediator::CompileXmas(kFig3).ValueOrDie();
  auto in_process = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
  std::string local_term = testing::MaterializeToTerm(in_process->document());

  // The framed session must produce the identical term — every d/r/f the
  // materializer issues crosses the wire.
  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  std::string remote_term = testing::MaterializeToTerm(doc.get());
  EXPECT_EQ(remote_term, local_term);
  EXPECT_EQ(remote_term, kExpectedAnswer);
  EXPECT_TRUE(doc->last_status().ok());
}

TEST(ServiceTest, VectoredNavigationOverFrames) {
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});
  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();

  std::vector<NodeId> med_homes;
  doc->DownAll(doc->Root(), &med_homes);
  ASSERT_EQ(med_homes.size(), 2u);
  for (const NodeId& mh : med_homes) EXPECT_EQ(doc->Fetch(mh), "med_home");

  // σ as a frame: from the first child of med_home[0] (a home element),
  // select the following sibling labeled "school".
  std::optional<NodeId> home = doc->Down(med_homes[0]);
  ASSERT_TRUE(home.has_value());
  std::optional<NodeId> school =
      doc->SelectSibling(*home, LabelPredicate::Equals("school"));
  ASSERT_TRUE(school.has_value());
  EXPECT_EQ(doc->Fetch(*school), "school");

  // NthChild and NextSiblings.
  std::optional<NodeId> second = doc->NthChild(doc->Root(), 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, med_homes[1]);
  std::vector<NodeId> sibs;
  doc->NextSiblings(med_homes[0], -1, &sibs);
  ASSERT_EQ(sibs.size(), 1u);
  EXPECT_EQ(sibs[0], med_homes[1]);

  // FetchSubtree snapshots the whole answer in one frame.
  std::vector<SubtreeEntry> entries;
  doc->FetchSubtree(doc->Root(), -1, &entries);
  EXPECT_FALSE(entries.empty());
  EXPECT_EQ(entries[0].label.name(), "answer");

  // The XmlElement client layer works unchanged over the framed session
  // (transparency across the service boundary).
  client::VirtualXmlDocument vdoc(doc.get());
  client::XmlElement answer = vdoc.Root();
  EXPECT_EQ(answer.Name(), "answer");
  EXPECT_EQ(answer.Children().size(), 2u);
  EXPECT_EQ(answer.FirstChild().Child("home").Child("zip").Text(), "91220");
}

TEST(ServiceTest, MalformedFramesLeaveSessionUsable) {
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});
  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  NodeId root = doc->Root();

  // A parade of garbage: truncated, corrupt magic, bogus type. Every one
  // comes back as a kError frame (or transport error), never a crash.
  const char version = wire::EncodeFrame(Frame())[6];
  for (const std::string& junk :
       {std::string(), std::string("\x01\x02\x03"), std::string(40, '\xff'),
        std::string("\x00\x00\x00\x00MX", 6) + version + '\x20'}) {
    Result<std::string> resp = service.RoundTrip(junk);
    ASSERT_TRUE(resp.ok());
    Result<Frame> decoded = wire::DecodeFrame(resp.value());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().type, MsgType::kError);
    EXPECT_FALSE(decoded.value().ToStatus().ok());
  }

  // A well-formed frame with an unknown session: error frame, not a crash.
  Frame stray;
  stray.type = MsgType::kDown;
  stray.session = 424242;
  stray.node = root;
  Result<Frame> r = wire::Call(&service, stray);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);

  // The existing session is untouched by all of the above.
  EXPECT_EQ(doc->Fetch(root), "answer");
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()), kExpectedAnswer);
}

TEST(ServiceTest, IdleSessionsAreEvicted) {
  ServiceFixture fx;
  MediatorService::Options options;
  options.session_idle_ttl_ns = 1;  // everything idle >1ns is reclaimable
  MediatorService service(&fx.env(), options);

  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  EXPECT_EQ(doc->Fetch(doc->Root()), "answer");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(service.registry().EvictIdle(), 1u);

  EXPECT_FALSE(doc->Down(doc->Root()).has_value());
  EXPECT_EQ(doc->last_status().code(), Status::Code::kNotFound);
  EXPECT_EQ(service.Metrics().sessions_evicted, 1);
}

TEST(ServiceTest, TouchedSessionDoesNotCauseSweepScanStorm) {
  ServiceFixture fx;
  MediatorService::Options options;
  options.session_idle_ttl_ns = 30'000'000;  // 30 ms
  MediatorService service(&fx.env(), options);

  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  NodeId root = doc->Root();
  EXPECT_EQ(doc->Fetch(root), "answer");
  // Everything is fresh: the expiry hint is in the future, so neither the
  // Open nor the commands paid a registry scan.
  EXPECT_EQ(service.registry().counters().sweep_scans, 0);

  // Let the TTL lapse, then keep the session hot with a burst of commands.
  // The hint still points at the session's ORIGINAL expiry, so the first
  // command finds it in the past and pays one (no-op) scan. That scan must
  // recompute the hint from the touched activity time — before that fix the
  // hint stayed stale and every one of these commands scanned.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(doc->Fetch(root), "answer");
  }
  int64_t scans = service.registry().counters().sweep_scans;
  EXPECT_GE(scans, 1);
  EXPECT_LE(scans, 3) << "stale expiry hint: every command is scanning";
  // The kept session survived its own sweeps mid-dialogue.
  EXPECT_EQ(service.Metrics().sessions_evicted, 0);
}

TEST(ServiceTest, OpenIdempotencyTokenReplaysLiveSession) {
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});

  Frame open;
  open.type = MsgType::kOpen;
  open.text = kFig3;
  open.text2 = "failover-token-1";
  Result<Frame> first = wire::Call(&service, open);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().type, MsgType::kOpenOk);

  // Replaying the same token (a failover re-issue whose response was lost)
  // re-attaches to the live session instead of leaking a second one.
  Result<Frame> replay = wire::Call(&service, open);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().type, MsgType::kOpenOk);
  EXPECT_EQ(replay.value().session, first.value().session);
  EXPECT_EQ(service.registry().counters().open_replays, 1);
  EXPECT_EQ(service.registry().counters().opened, 1);

  // A different token — and no token at all — each build fresh sessions.
  open.text2 = "failover-token-2";
  Result<Frame> second = wire::Call(&service, open);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().session, first.value().session);
  open.text2.clear();
  Result<Frame> third = wire::Call(&service, open);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third.value().session, first.value().session);
  EXPECT_EQ(service.registry().counters().opened, 3);

  // Close retires the token; the next open under it is a new session.
  Frame close;
  close.type = MsgType::kClose;
  close.session = first.value().session;
  ASSERT_EQ(wire::Call(&service, close).ValueOrDie().type, MsgType::kCloseOk);
  open.text2 = "failover-token-1";
  Result<Frame> fresh = wire::Call(&service, open);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value().session, first.value().session);
  EXPECT_EQ(service.registry().counters().open_replays, 1);
}

TEST(ServiceTest, ForeignNodeIdIsRejectedWithTypedErrorNotAbort) {
  // Answer-document node ids embed plan-instance-private state; handing one
  // session's ids to another (a failed-over client, a restarted peer, a
  // fuzzer) used to trip the navigable layer's internal-bug CHECK and abort
  // the whole process. The boundary must answer with a typed frame instead.
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});

  auto doc_a = FramedDocument::Open(&service, kFig3).ValueOrDie();
  auto doc_b = FramedDocument::Open(&service, kFig3).ValueOrDie();
  NodeId root_a = doc_a->Root();
  ASSERT_TRUE(root_a.valid());
  std::optional<NodeId> child_a = doc_a->Down(root_a);
  ASSERT_TRUE(child_a.has_value());

  // Session A's id inside session B's dialogue: typed rejection, no crash.
  Frame cross;
  cross.type = MsgType::kDown;
  cross.session = doc_b->session_id();
  cross.node = *child_a;
  Result<Frame> rejected = wire::Call(&service, cross);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kInvalidArgument);

  // An entirely fabricated id gets the same treatment.
  cross.node = NodeId("fw", {int64_t{424242}, int64_t{7},
                             NodeId("bogus", {int64_t{1}})});
  rejected = wire::Call(&service, cross);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kInvalidArgument);

  // Both sessions keep serving their OWN ids afterwards.
  EXPECT_EQ(doc_a->Fetch(*child_a), "med_home");
  EXPECT_EQ(doc_b->Fetch(doc_b->Root()), "answer");
}

TEST(ServiceTest, SessionTableCapacity) {
  ServiceFixture fx;
  MediatorService::Options options;
  options.max_sessions = 2;
  MediatorService service(&fx.env(), options);

  auto a = FramedDocument::Open(&service, kFig3).ValueOrDie();
  auto b = FramedDocument::Open(&service, kFig3).ValueOrDie();
  Result<std::unique_ptr<FramedDocument>> c =
      FramedDocument::Open(&service, kFig3);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), Status::Code::kUnavailable);

  // Closing one makes room again.
  EXPECT_TRUE(a->Close().ok());
  EXPECT_TRUE(FramedDocument::Open(&service, kFig3).ok());
}

TEST(ServiceTest, DeadlineExpiryWhileQueued) {
  // One worker; the first command holds it for tens of ms, so a second
  // command on the same session with a 1ms budget expires in the queue and
  // is cancelled with kDeadlineExceeded at dequeue time.
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  SlowNavigable slow_homes(&homes_nav, std::chrono::milliseconds(30));

  SessionEnvironment env;
  env.RegisterShared("homesSrc", &slow_homes);
  env.RegisterShared("schoolsSrc", &schools_nav);

  MediatorService::Options options;
  options.workers = 1;
  MediatorService service(&env, options);
  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();

  // Slow request first (async, no deadline): Fetch(root) resolves the first
  // binding, which fetches through the slow source.
  Frame slow = *MakeFetchRoot(doc.get());
  std::atomic<bool> slow_done{false};
  service.CallAsync(wire::EncodeFrame(slow),
                    [&slow_done](std::string) { slow_done = true; });

  // Second request on the same session with a 1ms budget.
  Frame hurried = slow;
  hurried.deadline_ns = 1'000'000;
  Result<Frame> response = wire::Call(&service, hurried);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(slow_done.load());  // Call() waited behind the slow one

  EXPECT_GE(service.Metrics().requests_expired, 1);
  // The session survived the expired request.
  EXPECT_EQ(doc->Fetch(doc->Root()), "answer");
}

TEST(ServiceTest, OverloadRejectsWithUnavailable) {
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  SlowNavigable slow_homes(&homes_nav, std::chrono::milliseconds(50));

  SessionEnvironment env;
  env.RegisterShared("homesSrc", &slow_homes);
  env.RegisterShared("schoolsSrc", &schools_nav);

  MediatorService::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  MediatorService service(&env, options);
  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();

  Frame fetch = *MakeFetchRoot(doc.get());
  std::string bytes = wire::EncodeFrame(fetch);

  // #1 occupies the single worker (slow source); #2 fills the single queue
  // slot; #3 must be refused at the door with kUnavailable.
  std::atomic<int> completions{0};
  service.CallAsync(bytes, [&completions](std::string) { ++completions; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let #1 start
  service.CallAsync(bytes, [&completions](std::string) { ++completions; });
  Result<Frame> rejected = wire::Call(&service, fetch);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kUnavailable);
  EXPECT_GE(service.Metrics().requests_rejected, 1);

  // The in-flight requests complete normally and the session stays usable.
  while (completions.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(doc->Fetch(doc->Root()), "answer");
}

TEST(ServiceTest, RemoteLxpServing) {
  // The service exports a wrapper; a client-side BufferComponent demand-
  // pages the remote source through FramedLxpWrapper — the same open-tree
  // machinery, now with fills as frames.
  auto homes = testing::Doc(kHomes);
  wrappers::XmlLxpWrapper wrapper(homes.get());
  SessionEnvironment env;
  env.ExportWrapper("homes.xml", &wrapper);
  MediatorService service(&env, {});

  wire::FramedLxpWrapper remote(&service, "homes.xml");
  buffer::BufferComponent buffer(&remote, "homes.xml");
  EXPECT_EQ(testing::MaterializeToTerm(&buffer), kHomes);
  EXPECT_TRUE(remote.last_status().ok());
  EXPECT_GT(wrapper.fills_served(), 0);

  // The stub's single-hole fill is a one-hole fill_many over the wire and
  // answers exactly what the wrapper's own fill does.
  const std::string root = remote.GetRoot("homes.xml");
  buffer::FragmentList over_wire;
  ASSERT_TRUE(remote.TryFill(root, &over_wire).ok());
  wrappers::XmlLxpWrapper local(homes.get());
  const std::string local_root = local.GetRoot("homes.xml");
  ASSERT_EQ(local_root, root);
  EXPECT_EQ(buffer::FragmentListByteSize(over_wire),
            buffer::FragmentListByteSize(local.Fill(local_root)));

  // Unknown URI: empty results, status latched, no crash.
  wire::FramedLxpWrapper bogus(&service, "nope.xml");
  EXPECT_EQ(bogus.GetRoot("nope.xml"), "");
  EXPECT_EQ(bogus.last_status().code(), Status::Code::kNotFound);
}

/// Forwards the first `healthy_calls` round trips to `inner`, then refuses
/// every one: an upstream that fails after the handshake.
class FailingAfterTransport : public wire::FrameTransport {
 public:
  FailingAfterTransport(wire::FrameTransport* inner, int healthy_calls)
      : inner_(inner), healthy_left_(healthy_calls) {}
  Result<std::string> RoundTrip(const std::string& request) override {
    if (healthy_left_-- > 0) return inner_->RoundTrip(request);
    return Status::Unavailable("upstream down");
  }

 private:
  wire::FrameTransport* inner_;
  int healthy_left_;
};

// A relay — mixd B exporting a framed stub into mixd C — serves through the
// stub's fallible face: when C fails after get_root and the root fill, A's
// buffer receives error frames and degrades with a typed kUnavailable. It
// never receives the empty refinements the infallible face fabricates,
// which A would splice as "no children" — a silently shorter answer.
TEST(ServiceTest, RelayedUpstreamFailureIsAnErrorNotAShorterAnswer) {
  auto homes = testing::Doc(kHomes);
  wrappers::XmlLxpWrapper wrapper(homes.get());
  SessionEnvironment env_c;
  env_c.ExportWrapper("homes.xml", &wrapper);
  MediatorService service_c(&env_c, {});

  FailingAfterTransport to_c(&service_c, /*healthy_calls=*/2);
  wire::FramedLxpWrapper relay(&to_c, "homes.xml");
  SessionEnvironment env_b;
  env_b.ExportWrapper("homes.xml", &relay);
  MediatorService service_b(&env_b, {});

  wire::FramedLxpWrapper remote(&service_b, "homes.xml");
  buffer::BufferComponent buffer(&remote, "homes.xml");
  const std::string answer = testing::MaterializeToTerm(&buffer);
  EXPECT_NE(answer.find("#unavailable"), std::string::npos) << answer;
  EXPECT_EQ(buffer.TakeStatus().code(), Status::Code::kUnavailable);
  EXPECT_GT(buffer.degraded_holes(), 0);
}

// An exported fault decorator injects on the serving path too: the service
// calls the faces the decorator overrides.
TEST(ServiceTest, ExportedFaultDecoratorInjects) {
  auto homes = testing::Doc(kHomes);
  wrappers::XmlLxpWrapper wrapper(homes.get());
  net::FaultSpec spec;
  spec.p_fail = 1.0;
  buffer::FaultyLxpWrapper faulty(&wrapper, spec, /*seed=*/7);
  SessionEnvironment env;
  env.ExportWrapper("homes.xml", &faulty);
  MediatorService service(&env, {});

  wire::FramedLxpWrapper remote(&service, "homes.xml");
  buffer::BufferComponent buffer(&remote, "homes.xml");
  EXPECT_EQ(testing::MaterializeToTerm(&buffer), "#unavailable");
  EXPECT_EQ(buffer.TakeStatus().code(), Status::Code::kUnavailable);
  EXPECT_EQ(wrapper.fills_served(), 0);
}

TEST(ServiceTest, ConcurrentSessionsSmoke) {
  ServiceFixture fx;
  MediatorService::Options options;
  options.workers = 8;
  options.queue_capacity = 4096;
  MediatorService service(&fx.env(), options);

  constexpr int kThreads = 8;
  constexpr int kSessionsPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &failures] {
      for (int s = 0; s < kSessionsPerThread; ++s) {
        auto doc = FramedDocument::Open(&service, kFig3);
        if (!doc.ok()) {
          ++failures;
          continue;
        }
        if (testing::MaterializeToTerm(doc.value().get()) != kExpectedAnswer) {
          ++failures;
        }
        if (!doc.value()->Close().ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.sessions_opened, kThreads * kSessionsPerThread);
  EXPECT_EQ(snap.sessions_open, 0);
  EXPECT_EQ(snap.requests_rejected, 0);
  EXPECT_EQ(snap.requests_error, 0);
  EXPECT_GT(snap.p99_ns, 0);
}

// Single-source query for the cache tests (one wrapper factory per open).
const char* kHomesOnly = R"(
CONSTRUCT <answer> $H {$H} </answer> {}
WHERE homesSrc homes.home $H
)";

TEST(ServiceTest, ConcurrentOpensOverlap) {
  // Session construction (wrapper factories, mediator instantiation) must
  // run OUTSIDE the registry lock: two Opens dispatched to different
  // workers rendezvous inside the wrapper factory. If Opens serialized,
  // the first factory would wait out its timeout alone and max_inside
  // would stay 1.
  auto homes = testing::Doc(kHomes);
  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  int max_inside = 0;

  SessionEnvironment env;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&]() -> std::unique_ptr<buffer::LxpWrapper> {
        {
          std::unique_lock<std::mutex> lock(mu);
          ++inside;
          max_inside = std::max(max_inside, inside);
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(2),
                      [&] { return max_inside >= 2; });
          --inside;
        }
        return std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
      },
      "homes.xml");

  MediatorService::Options options;
  options.workers = 4;
  MediatorService service(&env, options);

  std::atomic<int> failures{0};
  std::thread t1([&] {
    if (!FramedDocument::Open(&service, kHomesOnly).ok()) ++failures;
  });
  std::thread t2([&] {
    // Different text (a comment) so neither Open waits on the other's
    // plan-cache entry — only the registry lock could serialize them.
    std::string other = std::string(kHomesOnly) + "% second\n";
    if (!FramedDocument::Open(&service, other).ok()) ++failures;
  });
  t1.join();
  t2.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(max_inside, 2) << "concurrent Opens serialized on the registry";
}

TEST(ServiceTest, SharedCacheServesSecondSessionWithoutWrapperFills) {
  auto homes = testing::Doc(kHomes);
  std::mutex mu;
  std::vector<wrappers::XmlLxpWrapper*> created;  // owned by their sessions

  SessionEnvironment env;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&]() -> std::unique_ptr<buffer::LxpWrapper> {
        auto w = std::make_unique<wrappers::XmlLxpWrapper>(homes.get());
        std::lock_guard<std::mutex> lock(mu);
        created.push_back(w.get());
        return w;
      },
      "homes.xml");

  MediatorService::Options options;
  options.source_cache_bytes = 1 << 20;
  MediatorService service(&env, options);

  auto doc1 = FramedDocument::Open(&service, kHomesOnly).ValueOrDie();
  std::string first = testing::MaterializeToTerm(doc1.get());

  // Second session, same query reformatted: the compiled plan comes from
  // the plan cache and every source fill from the fragment cache — its
  // wrapper instance serves ZERO fills, and the answer is byte-identical.
  std::string reformatted =
      "CONSTRUCT <answer>  $H {$H} </answer> {} % same query\n"
      "WHERE homesSrc homes.home $H";
  auto doc2 = FramedDocument::Open(&service, reformatted).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(doc2.get()), first);

  ASSERT_EQ(created.size(), 2u);
  EXPECT_GT(created[0]->fills_served(), 0);
  EXPECT_EQ(created[1]->fills_served(), 0);

  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_GT(snap.cache_hits, 0);
  EXPECT_GT(snap.cache_bytes, 0);
  EXPECT_EQ(snap.plan_cache_hits, 1);
  EXPECT_GE(snap.plan_cache_misses, 1);
}

/// What one plan-cache configuration did over a fixed sequence of opens.
struct PlanCacheRun {
  std::vector<std::string> answers;
  std::vector<int64_t> plan_rewrites;
  ServiceMetricsSnapshot snap;
};

/// Opens Fig. 3 (XML sources) and a zip selection over a relational source
/// that declares pushdown, twice each, with the answer-view cache on.
PlanCacheRun RunOpensWithPlanCache(int64_t plan_cache_entries) {
  rdb::Database db("realty");
  rdb::Table* table =
      db.CreateTable("homes", rdb::Schema({{"addr", rdb::Type::kString},
                                           {"zip", rdb::Type::kInt}}))
          .ValueOrDie();
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(table
                    ->Insert({rdb::Value("street " + std::to_string(i)),
                              rdb::Value(int64_t{91220 + i % 6})})
                    .ok());
  }
  ServiceFixture fx;
  SessionEnvironment::WrapperOptions wo;
  wo.capability = wrappers::RelationalLxpWrapper(&db).Capability();
  fx.env().RegisterWrapperFactory(
      "realty",
      [&db] { return std::make_unique<wrappers::RelationalLxpWrapper>(&db); },
      "db", wo);
  const char* zip_query =
      "CONSTRUCT <hits> $R {$R} </hits> {} "
      "WHERE realty realty.homes.row $R AND $R zip._ $Z AND $Z = '91223'";

  MediatorService::Options options;
  options.plan_cache_entries = plan_cache_entries;
  options.answer_view_cache_bytes = 1 << 20;
  MediatorService service(&fx.env(), options);
  PlanCacheRun run;
  for (int round = 0; round < 2; ++round) {
    for (const char* query : {kFig3, zip_query}) {
      auto doc = FramedDocument::Open(&service, query).ValueOrDie();
      std::shared_ptr<Session> session =
          service.registry().Find(doc->session_id());
      EXPECT_NE(session, nullptr);
      run.plan_rewrites.push_back(
          session != nullptr ? session->metrics().plan_rewrites : -1);
      run.answers.push_back(testing::MaterializeToTerm(doc.get()));
      EXPECT_TRUE(doc->Close().ok());
    }
  }
  run.snap = service.Metrics();
  return run;
}

TEST(ServiceTest, PlanCacheOffCompilesEveryOpenAndStillOptimizes) {
  const PlanCacheRun cached = RunOpensWithPlanCache(64);
  const PlanCacheRun uncached = RunOpensWithPlanCache(0);

  // Same answers, and Fig. 3 is the expected one.
  EXPECT_EQ(uncached.answers, cached.answers);
  ASSERT_EQ(uncached.answers.size(), 4u);
  EXPECT_EQ(uncached.answers[0], kExpectedAnswer);
  EXPECT_NE(uncached.answers[1].find("zip[91223]"), std::string::npos);

  // Capacity 0 still optimizes: the pushdown query's plan was rewritten on
  // both of its opens, exactly as the cached run's plan was.
  EXPECT_GT(uncached.plan_rewrites[1], 0);
  EXPECT_EQ(uncached.plan_rewrites, cached.plan_rewrites);

  // Every open compiled: nothing was cached or hit, and each open of a
  // query the optimizer rewrites counted a fresh optimized compile. The
  // cached run compiled each query once and hit on its second open.
  int64_t rewritten_opens = 0;
  for (int64_t r : uncached.plan_rewrites) rewritten_opens += r > 0 ? 1 : 0;
  EXPECT_EQ(uncached.snap.plan_cache_hits, 0);
  EXPECT_EQ(uncached.snap.plan_cache_misses, uncached.snap.sessions_opened)
      << "one compile per open";
  EXPECT_EQ(uncached.snap.plans_optimized, rewritten_opens);
  EXPECT_EQ(cached.snap.plan_cache_hits, 2);
  EXPECT_EQ(cached.snap.plans_optimized, rewritten_opens / 2);

  // The answer-view descriptor still comes through: the first Fig. 3
  // session publishes and the second is served from its snapshot.
  EXPECT_GE(uncached.snap.view_publishes, 1);
  EXPECT_GE(uncached.snap.view_hits, 1);
  EXPECT_EQ(uncached.snap.view_publishes, cached.snap.view_publishes);
  EXPECT_EQ(uncached.snap.view_hits, cached.snap.view_hits);
}

TEST(ServiceTest, InvalidateSourcePreservesFreshnessSemantics) {
  // The E9 churn scenario with the cache enabled: after the source changes
  // AND InvalidateSource is called, new sessions see the new content; the
  // cache never resurrects the old generation for them.
  auto v1 = testing::Doc("homes[home[zip[91220]]]");
  auto v2 = testing::Doc("homes[home[zip[99999]]]");
  std::atomic<xml::Document*> current{v1.get()};

  SessionEnvironment env;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&]() -> std::unique_ptr<buffer::LxpWrapper> {
        return std::make_unique<wrappers::XmlLxpWrapper>(current.load());
      },
      "homes.xml");

  MediatorService::Options options;
  options.source_cache_bytes = 1 << 20;
  MediatorService service(&env, options);

  auto doc1 = FramedDocument::Open(&service, kHomesOnly).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(doc1.get()),
            "answer[home[zip[91220]]]");

  // The source churns. Without an invalidation the cache still answers
  // from the published generation-0 fragments (the staleness window a
  // shared cache introduces)...
  current.store(v2.get());
  auto stale = FramedDocument::Open(&service, kHomesOnly).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(stale.get()),
            "answer[home[zip[91220]]]");

  // ...and InvalidateSource closes it: the generation bump makes every old
  // entry unreachable to sessions opened from now on.
  service.InvalidateSource("homesSrc");
  auto fresh = FramedDocument::Open(&service, kHomesOnly).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(fresh.get()),
            "answer[home[zip[99999]]]");
}

TEST(ServiceTest, CacheStressManySessionsByteIdenticalUnderEviction) {
  // 8 workers x 64 sessions over a shared hot source with an UNDERSIZED
  // cache budget: every answer must match the cache-off truth
  // (kExpectedAnswer) exactly, and the byte account must respect the
  // budget. Every session reads the same fills once each, so no fill is
  // wanted more often than another: admission keeps the entries cached
  // first and turns the rest away. Halfway through, one worker invalidates
  // both sources, which leaves the cache full of stale entries; the new
  // generation's publishes must evict them. Runs under TSan in CI
  // (thread-sanitize job).
  ServiceFixture fx;
  MediatorService::Options options;
  options.workers = 8;
  options.queue_capacity = 4096;
  options.source_cache_bytes = 1024;  // a handful of entries — must churn
  MediatorService service(&fx.env(), options);

  constexpr int kThreads = 8;
  constexpr int kSessionsPerThread = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &mismatches, t] {
      for (int s = 0; s < kSessionsPerThread; ++s) {
        if (t == 0 && s == kSessionsPerThread / 2) {
          service.InvalidateSource("homesSrc");
          service.InvalidateSource("schoolsSrc");
        }
        auto doc = FramedDocument::Open(&service, kFig3);
        if (!doc.ok()) {
          ++mismatches;
          continue;
        }
        if (testing::MaterializeToTerm(doc.value().get()) != kExpectedAnswer) {
          ++mismatches;
        }
        if (!doc.value()->Close().ok()) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.sessions_opened, kThreads * kSessionsPerThread);
  EXPECT_LE(snap.cache_bytes, options.source_cache_bytes);
  EXPECT_GT(snap.cache_evictions, 0) << "stale entries must be evicted";
  EXPECT_GT(snap.cache_hits + snap.cache_misses, 0);
  // Concurrent first misses may each compile (first insert wins), so up to
  // kThreads opens can miss; everything after hits the shared plan.
  EXPECT_GE(snap.plan_cache_hits, kThreads * (kSessionsPerThread - 1));
}

// ---------------------------------------------------------------------------
// LatencyHistogram: log-linear buckets quote p50/p99 within 12.5% of the
// exact nearest-rank percentile.

/// Records `samples` into a histogram (and, every other one, into `half`)
/// and checks p50 and p99 against the exact percentiles.
void ExpectPercentilesWithinEighth(std::vector<int64_t> samples,
                                   const std::string& what) {
  LatencyHistogram all;
  LatencyHistogram even;
  LatencyHistogram odd;
  for (size_t i = 0; i < samples.size(); ++i) {
    all.Record(samples[i]);
    (i % 2 == 0 ? even : odd).Record(samples[i]);
  }
  std::sort(samples.begin(), samples.end());
  even += odd;  // merges are bucket-wise, so exact
  EXPECT_EQ(even.count(), all.count()) << what;
  for (double p : {0.5, 0.99}) {
    const int64_t exact = samples[static_cast<size_t>(
        p * static_cast<double>(samples.size() - 1))];
    const int64_t quoted = all.PercentileNs(p);
    EXPECT_LE(std::abs(quoted - exact), exact / 8)
        << what << " p=" << p << " exact=" << exact << " quoted=" << quoted;
    EXPECT_EQ(even.PercentileNs(p), quoted) << what << " p=" << p;
  }
}

TEST(LatencyHistogramTest, PercentilesWithinAnEighthOfExact) {
  std::mt19937_64 rng(7);
  std::vector<int64_t> uniform;
  std::uniform_int_distribution<int64_t> wide(1'000, 10'000'000);
  for (int i = 0; i < 20'000; ++i) uniform.push_back(wide(rng));
  ExpectPercentilesWithinEighth(uniform, "uniform");

  // 95% fast commands around 40 us, 5% slow ones around 3 ms: p50 in the
  // first mode, p99 in the second.
  std::vector<int64_t> bimodal;
  std::normal_distribution<double> fast(40'000, 4'000);
  std::normal_distribution<double> slow(3'000'000, 300'000);
  std::bernoulli_distribution is_slow(0.05);
  for (int i = 0; i < 20'000; ++i) {
    bimodal.push_back(static_cast<int64_t>(is_slow(rng) ? slow(rng) : fast(rng)));
  }
  ExpectPercentilesWithinEighth(bimodal, "bimodal");

  ExpectPercentilesWithinEighth(std::vector<int64_t>(1'000, 123'457),
                                "single value");
  ExpectPercentilesWithinEighth({1'999'999'999}, "one sample");
}

TEST(LatencyHistogramTest, SmallValuesAreExactAndEmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.PercentileNs(0.5), 0);
  for (int64_t v = 0; v < 16; ++v) {
    LatencyHistogram one;
    one.Record(v);
    EXPECT_EQ(one.PercentileNs(0.5), v);
  }
  // A negative sample counts as 0 ns.
  h.Record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.PercentileNs(0.99), 0);
}

// ---------------------------------------------------------------------------
// Executor lane claims: a caller holding a request runs it itself when the
// key's lane is idle (the path RoundTrip and the TCP event loops take).

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

TEST(ExecutorTest, InlineAndPooledTasksOfAKeyRunInSubmissionOrder) {
  Executor executor(Executor::Options{4, 1024});
  constexpr uint64_t kKey = 7;
  constexpr int kTasks = 120;
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int i) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(i);
  };
  std::atomic<int> pending{0};
  int inline_runs = 0;
  for (int i = 0; i < kTasks; ++i) {
    if (i % 4 == 3) {
      // Wait for the lane to drain: this one must run here.
      while (!executor.TryRunInline(kKey, [&] { record(i); })) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      ++inline_runs;
      continue;
    }
    // Odd tasks try the inline path first; they run here only when the
    // pooled tasks before them are done, and queue behind them otherwise.
    if (i % 2 == 1 && executor.TryRunInline(kKey, [&] { record(i); })) {
      ++inline_runs;
      continue;
    }
    ++pending;
    ASSERT_TRUE(executor
                    .Submit(kKey, kNoDeadline,
                            [&, i](const Status& admission) {
                              EXPECT_TRUE(admission.ok());
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(100));
                              record(i);
                              --pending;
                            })
                    .ok());
  }
  while (pending.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<int> expected(kTasks);
  for (int i = 0; i < kTasks; ++i) expected[static_cast<size_t>(i)] = i;
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(order, expected);
  }
  EXPECT_GE(inline_runs, kTasks / 4);
  Executor::Stats stats = executor.stats();
  EXPECT_EQ(stats.inline_runs, inline_runs);
  EXPECT_EQ(stats.accepted, kTasks);
  EXPECT_EQ(stats.executed, kTasks);
  EXPECT_EQ(stats.queued, 0);
}

TEST(ExecutorTest, InlineClaimRefusedWhileLaneBusyOrStopping) {
  auto executor = std::make_unique<Executor>(Executor::Options{1, 16});
  constexpr uint64_t kKey = 1;
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  ASSERT_TRUE(executor
                  ->Submit(kKey, kNoDeadline,
                           [&](const Status&) {
                             std::unique_lock<std::mutex> lock(mu);
                             started = true;
                             cv.notify_all();
                             cv.wait(lock, [&] { return release; });
                           })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  bool ran = false;
  // Running on a worker: refused, and the task is not run.
  EXPECT_FALSE(executor->TryRunInline(kKey, [&] { ran = true; }));
  // Another key's lane is idle.
  EXPECT_TRUE(executor->TryRunInline(kKey + 1, [] {}));
  // Running with a task queued behind it: still refused.
  std::atomic<bool> second_done{false};
  ASSERT_TRUE(executor
                  ->Submit(kKey, kNoDeadline,
                           [&](const Status&) { second_done = true; })
                  .ok());
  EXPECT_FALSE(executor->TryRunInline(kKey, [&] { ran = true; }));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // Once both pooled tasks are done the lane is idle again.
  while (!executor->TryRunInline(kKey, [&] { ran = true; })) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_TRUE(second_done.load());
  EXPECT_TRUE(ran);
  Executor::Stats stats = executor->stats();
  EXPECT_EQ(stats.inline_runs, 2);
  EXPECT_EQ(stats.accepted, 4);
  EXPECT_EQ(stats.executed, 4);

  // Stopping: a pooled task keeps claiming an idle key while the executor
  // is destroyed around it. Once the destructor has begun, the claim is
  // refused and the task returns, letting the destructor join it.
  std::atomic<bool> in_task{false};
  std::atomic<bool> refused{false};
  Executor* raw = executor.get();
  ASSERT_TRUE(executor
                  ->Submit(kKey, kNoDeadline,
                           [&, raw](const Status&) {
                             in_task = true;
                             auto give_up = std::chrono::steady_clock::now() +
                                            std::chrono::seconds(10);
                             while (std::chrono::steady_clock::now() < give_up) {
                               if (!raw->TryRunInline(99, [] {})) {
                                 refused = true;
                                 return;
                               }
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(100));
                             }
                           })
                  .ok());
  while (!in_task.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  executor.reset();
  EXPECT_TRUE(refused.load());
}

TEST(ServiceTest, RoundTripRunsSessionCommandsInline) {
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});
  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  NodeId root = doc->Root();
  EXPECT_EQ(doc->Fetch(root), "answer");
  EXPECT_TRUE(doc->Close().ok());

  // Root, Fetch and Close ran on this thread; Open always takes the pool.
  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_EQ(snap.requests_ok, 4);
  EXPECT_EQ(snap.requests_inline, 3);
  EXPECT_NE(snap.ToString().find(" inline=3 "), std::string::npos)
      << snap.ToString();
}

TEST(ServiceTest, MetricsFrameRoundTrip) {
  ServiceFixture fx;
  MediatorService service(&fx.env(), {});
  auto doc = FramedDocument::Open(&service, kFig3).ValueOrDie();
  (void)doc->Fetch(doc->Root());

  Frame req;
  req.type = MsgType::kMetrics;
  Result<Frame> resp = wire::Call(&service, req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().type, MsgType::kMetricsText);
  EXPECT_NE(resp.value().text.find("sessions"), std::string::npos);
}

}  // namespace
}  // namespace mix::service
