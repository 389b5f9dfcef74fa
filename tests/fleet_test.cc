// Fleet-tier tests: consistent-hash ring determinism and stability, the
// health circuit breaker, bounded-load session placement, health-aware
// failover with byte-identical answers (the Skolem-id replay property),
// all-backends-down shedding and probe-driven recovery, aggregated metrics,
// stateless LXP routing, and TCP mediator-over-mediator stacking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer.h"
#include "client/framed_document.h"
#include "fleet/hash_ring.h"
#include "fleet/health.h"
#include "fleet/remote_source.h"
#include "fleet/router.h"
#include "mediator/instantiate.h"
#include "mediator/plan_cache.h"
#include "mediator/translate.h"
#include "net/tcp/tcp_server.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wire.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"

namespace mix::fleet {
namespace {

using client::FramedDocument;
using service::MediatorService;
using service::SessionEnvironment;
using service::wire::Frame;
using service::wire::MsgType;

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

// --------------------------------------------------------------------------
// Hash ring.
// --------------------------------------------------------------------------

TEST(HashRingTest, PreferenceIsACompleteDeterministicPermutation) {
  HashRing ring({"b0", "b1", "b2", "b3"}, 64);
  for (int i = 0; i < 100; ++i) {
    std::string key = "key-" + std::to_string(i);
    std::vector<size_t> pref = ring.PreferenceFor(key);
    ASSERT_EQ(pref.size(), 4u);
    std::vector<size_t> sorted = pref;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<size_t>{0, 1, 2, 3}));
    // Deterministic: a rebuilt identical ring agrees exactly.
    HashRing again({"b0", "b1", "b2", "b3"}, 64);
    EXPECT_EQ(again.PreferenceFor(key), pref);
    EXPECT_EQ(ring.Owner(FleetHash(key)), pref[0]);
  }
}

TEST(HashRingTest, RemovingABackendOnlyMovesItsOwnKeys) {
  // The consistent-hashing contract: dropping b2 must not re-shuffle keys
  // owned by the survivors (their ring points are untouched).
  HashRing full({"b0", "b1", "b2"}, 64);
  HashRing reduced({"b0", "b1"}, 64);
  int moved = 0;
  for (int i = 0; i < 1000; ++i) {
    uint64_t h = FleetHash("key-" + std::to_string(i));
    size_t owner = full.Owner(h);
    if (owner != 2) {
      EXPECT_EQ(reduced.Owner(h), owner) << "survivor key " << i << " moved";
    } else {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0) << "fixture: b2 should own some keys";
}

TEST(HashRingTest, VirtualNodesBalanceOwnership) {
  HashRing ring({"b0", "b1", "b2"}, 64);
  std::vector<int> owned(3, 0);
  const int kKeys = 3000;
  for (int i = 0; i < kKeys; ++i) {
    ++owned[ring.Owner(FleetHash("key-" + std::to_string(i)))];
  }
  for (int b = 0; b < 3; ++b) {
    EXPECT_GT(owned[b], kKeys / 6) << "backend " << b << " starved";
    EXPECT_LT(owned[b], kKeys / 2) << "backend " << b << " overloaded";
  }
}

// --------------------------------------------------------------------------
// Health circuit breaker (fake clock throughout).
// --------------------------------------------------------------------------

TEST(HealthTrackerTest, EjectProbeReadmitCycle) {
  HealthOptions opts;
  opts.failure_threshold = 2;
  opts.probe_interval_ns = 1000;
  HealthTracker health(2, opts);
  int64_t now = 0;

  EXPECT_TRUE(health.Admit(0, now));
  health.ReportFailure(0, now);
  EXPECT_EQ(health.state(0), BackendState::kHealthy) << "1 failure < threshold";
  health.ReportFailure(0, now);
  EXPECT_EQ(health.state(0), BackendState::kEjected);
  EXPECT_EQ(health.healthy_count(), 1u);

  // Ejected: no admission until the probe interval elapses.
  EXPECT_FALSE(health.Admit(0, now + 500));
  // Interval up: exactly ONE caller gets the probe slot.
  EXPECT_TRUE(health.Admit(0, now + 1000));
  EXPECT_EQ(health.state(0), BackendState::kHalfOpen);
  EXPECT_FALSE(health.Admit(0, now + 1000)) << "one probe at a time";

  // Probe fails: re-ejected, interval restarted.
  health.ReportFailure(0, now + 1100);
  EXPECT_EQ(health.state(0), BackendState::kEjected);
  EXPECT_FALSE(health.Admit(0, now + 2000)) << "interval restarted at 1100";
  EXPECT_TRUE(health.Admit(0, now + 2100));

  // Probe succeeds: readmitted.
  health.ReportSuccess(0);
  EXPECT_EQ(health.state(0), BackendState::kHealthy);
  EXPECT_EQ(health.healthy_count(), 2u);

  HealthTracker::Stats stats = health.stats();
  EXPECT_EQ(stats.ejections, 2);
  EXPECT_EQ(stats.probes, 2);
  EXPECT_EQ(stats.readmissions, 1);
}

TEST(HealthTrackerTest, InterleavedSuccessResetsConsecutiveFailures) {
  HealthOptions opts;
  opts.failure_threshold = 3;
  HealthTracker health(1, opts);
  for (int round = 0; round < 5; ++round) {
    health.ReportFailure(0, 0);
    health.ReportFailure(0, 0);
    health.ReportSuccess(0);  // alive-but-lossy: the breaker must not trip
  }
  EXPECT_EQ(health.state(0), BackendState::kHealthy);
  EXPECT_EQ(health.stats().ejections, 0);
}

// --------------------------------------------------------------------------
// Router over in-process killable backends.
// --------------------------------------------------------------------------

/// FrameTransport decorator with a shared kill switch: once `dead` is set,
/// every exchange fails like a dropped connection (retryable kUnavailable),
/// which is what the health tracker and failover loop key on.
class KillableBackend : public service::wire::FrameTransport {
 public:
  KillableBackend(service::wire::FrameTransport* inner,
                  std::atomic<bool>* dead)
      : inner_(inner), dead_(dead) {}

  Result<std::string> RoundTrip(const std::string& request_bytes) override {
    if (dead_->load(std::memory_order_relaxed)) {
      return Status::Unavailable("backend killed");
    }
    return inner_->RoundTrip(request_bytes);
  }

 private:
  service::wire::FrameTransport* inner_;
  std::atomic<bool>* dead_;
};

/// N in-process mixd backends over the shared Fig. 3 sources, each with its
/// own kill switch.
class FleetFixture {
 public:
  explicit FleetFixture(int n)
      : homes_(testing::Doc(kHomes)), schools_(testing::Doc(kSchools)) {
    for (int i = 0; i < n; ++i) {
      auto env = std::make_unique<SessionEnvironment>();
      env->RegisterWrapperFactory(
          "homesSrc",
          [this] {
            return std::make_unique<wrappers::XmlLxpWrapper>(homes_.get());
          },
          "homes.xml");
      env->RegisterWrapperFactory(
          "schoolsSrc",
          [this] {
            return std::make_unique<wrappers::XmlLxpWrapper>(schools_.get());
          },
          "schools.xml");
      MediatorService::Options sopts;
      sopts.backend_id = "b" + std::to_string(i);
      services_.push_back(
          std::make_unique<MediatorService>(env.get(), sopts));
      envs_.push_back(std::move(env));
      dead_.push_back(std::make_unique<std::atomic<bool>>(false));
    }
  }

  std::vector<SessionRouter::Backend> Backends() {
    std::vector<SessionRouter::Backend> backends;
    for (size_t i = 0; i < services_.size(); ++i) {
      backends.push_back(SessionRouter::Backend{
          "b" + std::to_string(i), [this, i] {
            return std::make_unique<KillableBackend>(services_[i].get(),
                                                     dead_[i].get());
          }});
    }
    return backends;
  }

  void Kill(size_t i) { dead_[i]->store(true); }
  void Revive(size_t i) { dead_[i]->store(false); }
  MediatorService& service(size_t i) { return *services_[i]; }
  size_t size() const { return services_.size(); }

  int64_t TotalDegradedHoles() {
    int64_t total = 0;
    for (auto& s : services_) total += s->Metrics().degraded_holes;
    return total;
  }

 private:
  std::unique_ptr<xml::Document> homes_;
  std::unique_ptr<xml::Document> schools_;
  std::vector<std::unique_ptr<SessionEnvironment>> envs_;
  std::vector<std::unique_ptr<MediatorService>> services_;
  std::vector<std::unique_ptr<std::atomic<bool>>> dead_;
};

TEST(SessionRouterTest, SharedQueriesCoLocateOnTheRingOwner) {
  FleetFixture fx(3);
  SessionRouter router(fx.Backends(), {});

  std::vector<std::unique_ptr<FramedDocument>> docs;
  for (int i = 0; i < 4; ++i) {
    docs.push_back(router.OpenDocument(kFig3).ValueOrDie());
    EXPECT_EQ(docs.back()->Fetch(docs.back()->Root()), "answer");
  }
  // All four sessions share one canonical key, and four is under the load
  // floor: they all landed on the key's ring owner, where the second one
  // onward hits the warm caches.
  size_t home =
      router.ring().PreferenceFor(mediator::CanonicalXmasKey(kFig3))[0];
  FleetStats stats = router.stats();
  EXPECT_EQ(stats.opens_routed, 4);
  EXPECT_EQ(stats.sessions_per_backend[home], 4);
  EXPECT_EQ(stats.open_spills, 0);
  EXPECT_EQ(stats.sheds, 0);

  // Close releases the load slots.
  for (auto& doc : docs) EXPECT_TRUE(doc->Close().ok());
  stats = router.stats();
  EXPECT_EQ(stats.sessions_per_backend[home], 0);
}

TEST(SessionRouterTest, BoundedLoadSpillsToTheNextPreference) {
  FleetFixture fx(3);
  SessionRouter::Options opts;
  opts.bounded_load_factor = 1.0;
  opts.min_load_cap = 1;  // fair share only: forces spill immediately
  SessionRouter router(fx.Backends(), opts);

  std::vector<std::unique_ptr<FramedDocument>> docs;
  for (int i = 0; i < 6; ++i) {
    docs.push_back(router.OpenDocument(kFig3).ValueOrDie());
  }
  // One hot query cannot pin the whole fleet to its home backend: with the
  // cap at fair share, six same-key sessions land 2/2/2.
  FleetStats stats = router.stats();
  EXPECT_GT(stats.open_spills, 0);
  for (size_t b = 0; b < fx.size(); ++b) {
    EXPECT_EQ(stats.sessions_per_backend[b], 2) << "backend " << b;
  }
  // Placement never changed the answers.
  for (auto& doc : docs) {
    EXPECT_EQ(testing::MaterializeToTerm(doc.get()), kExpectedAnswer);
  }
  EXPECT_EQ(fx.TotalDegradedHoles(), 0);
}

TEST(SessionRouterTest, FailoverMidNavigationIsByteIdenticalAcrossBackends) {
  FleetFixture fx(3);
  SessionRouter::Options opts;
  opts.health.failure_threshold = 1;
  opts.health.probe_interval_ns = int64_t{3600} * 1'000'000'000;  // no probes
  SessionRouter router(fx.Backends(), opts);

  // 64 sessions of the shared query spread over the preference order by the
  // bounded-load cap (the home fills to its cap, then the spill backends).
  constexpr int kSessions = 64;
  std::vector<std::unique_ptr<FramedDocument>> docs;
  std::vector<NodeId> first_child;
  for (int i = 0; i < kSessions; ++i) {
    docs.push_back(router.OpenDocument(kFig3).ValueOrDie());
    // Partial navigation before the kill: latch a node handle to resume
    // from afterwards.
    std::optional<NodeId> child = docs.back()->Down(docs.back()->Root());
    ASSERT_TRUE(child.has_value());
    first_child.push_back(*child);
  }
  FleetStats before = router.stats();
  size_t home =
      router.ring().PreferenceFor(mediator::CanonicalXmasKey(kFig3))[0];
  ASSERT_GT(before.sessions_per_backend[home], 0);
  ASSERT_GT(before.opens_routed - before.sessions_per_backend[home], 0)
      << "fixture: the cap should have spread sessions beyond the home";

  // Kill the home backend mid-dialogue.
  fx.Kill(home);

  for (int i = 0; i < kSessions; ++i) {
    // Resuming from a PRE-KILL node id must answer identically wherever the
    // session lands: Skolem ids are self-describing, so the re-opened
    // session resolves them by value.
    EXPECT_EQ(docs[i]->Fetch(first_child[i]), "med_home") << "session " << i;
    // And the complete answer stays byte-identical to the single-instance
    // evaluation.
    EXPECT_EQ(testing::MaterializeToTerm(docs[i].get()), kExpectedAnswer)
        << "session " << i;
  }

  FleetStats after = router.stats();
  EXPECT_GT(after.failovers, 0);
  EXPECT_GE(after.health.ejections, 1);
  EXPECT_EQ(after.sessions_per_backend[home], 0)
      << "failed-over sessions must release the dead backend's load slots";
  EXPECT_EQ(fx.TotalDegradedHoles(), 0);
  EXPECT_EQ(router.health().state(home), BackendState::kEjected);
}

TEST(SessionRouterTest, AllBackendsDownShedsThenProbeRecovers) {
  FleetFixture fx(2);
  SessionRouter::Options opts;
  opts.health.failure_threshold = 1;
  opts.health.probe_interval_ns = 50'000'000;  // 50 ms
  SessionRouter router(fx.Backends(), opts);

  auto doc = router.OpenDocument(kFig3).ValueOrDie();
  EXPECT_EQ(doc->Fetch(doc->Root()), "answer");

  fx.Kill(0);
  fx.Kill(1);
  // Bound-session commands fail over nowhere: the error surfaces (and is
  // latched as retryable kUnavailable — a client retry policy could
  // re-drive it after recovery).
  EXPECT_FALSE(doc->Down(doc->Root()).has_value());
  EXPECT_EQ(doc->last_status().code(), Status::Code::kUnavailable);
  // New opens are shed outright.
  Result<std::unique_ptr<FramedDocument>> refused = router.OpenDocument(kFig3);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Status::Code::kUnavailable);
  EXPECT_GT(router.stats().sheds, 0);

  // Recovery: once the probe interval elapses, the next open doubles as the
  // half-open probe and readmits the backend it lands on.
  fx.Revive(0);
  fx.Revive(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  auto recovered = router.OpenDocument(kFig3);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(testing::MaterializeToTerm(recovered.value().get()),
            kExpectedAnswer);
  EXPECT_GE(router.stats().health.readmissions, 1);
  // The stranded session recovers too (its binding's backend is alive
  // again; no admission gate on bound sessions).
  EXPECT_EQ(doc->Fetch(doc->Root()), "answer");
}

TEST(SessionRouterTest, MetricsFrameAggregatesBackendsAndFleetStats) {
  FleetFixture fx(3);
  SessionRouter router(fx.Backends(), {});
  auto doc = router.OpenDocument(kFig3).ValueOrDie();
  EXPECT_EQ(doc->Fetch(doc->Root()), "answer");

  auto transport = router.MakeTransport();
  Frame req;
  req.type = MsgType::kMetrics;
  Result<Frame> resp = service::wire::Call(transport.get(), req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp.value().type, MsgType::kMetricsText);
  const std::string& text = resp.value().text;
  // Every backend's snapshot, attributed by backend id, plus the router's
  // own counters.
  EXPECT_NE(text.find("backend=b0 "), std::string::npos) << text;
  EXPECT_NE(text.find("backend=b1 "), std::string::npos) << text;
  EXPECT_NE(text.find("backend=b2 "), std::string::npos) << text;
  EXPECT_NE(text.find("fleet{opens="), std::string::npos) << text;
}

TEST(SessionRouterTest, LxpFramesRouteStatelesslyWithFailover) {
  // Each backend exports the same homes document for remote LXP serving;
  // LXP routing is stateless (hole ids encode their own positions), so any
  // healthy backend can answer any fill — including mid-dialogue failover.
  auto homes = testing::Doc(kHomes);
  std::vector<std::unique_ptr<wrappers::XmlLxpWrapper>> wrappers;
  std::vector<std::unique_ptr<SessionEnvironment>> envs;
  std::vector<std::unique_ptr<MediatorService>> services;
  std::vector<std::unique_ptr<std::atomic<bool>>> dead;
  for (int i = 0; i < 3; ++i) {
    wrappers.push_back(std::make_unique<wrappers::XmlLxpWrapper>(homes.get()));
    envs.push_back(std::make_unique<SessionEnvironment>());
    envs.back()->ExportWrapper("homes.xml", wrappers.back().get());
    services.push_back(std::make_unique<MediatorService>(
        envs.back().get(), MediatorService::Options{}));
    dead.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  std::vector<SessionRouter::Backend> backends;
  for (size_t i = 0; i < services.size(); ++i) {
    backends.push_back(SessionRouter::Backend{
        "b" + std::to_string(i), [&services, &dead, i] {
          return std::make_unique<KillableBackend>(services[i].get(),
                                                   dead[i].get());
        }});
  }
  SessionRouter::Options opts;
  opts.health.failure_threshold = 1;
  opts.health.probe_interval_ns = int64_t{3600} * 1'000'000'000;
  SessionRouter router(std::move(backends), opts);

  auto transport = router.MakeTransport();
  service::wire::FramedLxpWrapper remote(transport.get(), "homes.xml");
  std::string root_hole = remote.GetRoot("homes.xml");
  ASSERT_FALSE(root_hole.empty());
  buffer::FragmentList first = remote.Fill(root_hole);
  ASSERT_FALSE(first.empty());

  // Kill the URI's preferred backend: the SAME dialogue continues on the
  // next candidate, byte-identically (re-fill of the root hole matches).
  size_t uri_home = router.ring().PreferenceFor("homes.xml")[0];
  dead[uri_home]->store(true);
  buffer::FragmentList again = remote.Fill(root_hole);
  ASSERT_EQ(again.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again[i].ToTerm(), first[i].ToTerm());
  }
  EXPECT_GE(router.stats().health.ejections, 1);
}

// --------------------------------------------------------------------------
// Stacking: a mixd instance serving another instance's virtual view over a
// real TCP hop (Fig. 1's mediators-of-mediators, fleet edition).
// --------------------------------------------------------------------------

TEST(FleetStackingTest, UpperInstanceQueriesLowerViewOverTcpByteIdentical) {
  // Lower instance A: the Fig. 3 mediator, its virtual answer view exported
  // for remote LXP serving.
  auto homes = testing::Doc(kHomes);
  auto schools = testing::Doc(kSchools);
  xml::DocNavigable homes_nav(homes.get());
  xml::DocNavigable schools_nav(schools.get());
  mediator::SourceRegistry lower_sources;
  lower_sources.Register("homesSrc", &homes_nav);
  lower_sources.Register("schoolsSrc", &schools_nav);
  auto lower_plan = mediator::CompileXmas(kFig3).ValueOrDie();
  auto lower =
      mediator::LazyMediator::Build(*lower_plan, lower_sources).ValueOrDie();
  ViewLxpWrapper view(lower->document());

  SessionEnvironment env_a;
  env_a.ExportWrapper("fig3.view", &view);
  MediatorService service_a(&env_a, {});
  net::tcp::TcpServer server_a(&service_a, {});
  ASSERT_TRUE(server_a.Start().ok());

  // Upper instance B: registers A's exported view as a demand-paged remote
  // source and answers its own XMAS queries over it.
  SessionEnvironment env_b;
  env_b.RegisterWrapperFactory(
      "lower", RemoteSourceFactory("127.0.0.1", server_a.port(), "fig3.view"),
      "fig3.view");
  MediatorService service_b(&env_b, {});

  auto doc = FramedDocument::Open(
                 &service_b,
                 "CONSTRUCT <schools_found> $S {$S} </schools_found> {} "
                 "WHERE lower answer.med_home.school $S")
                 .ValueOrDie();
  // Byte-identical to the in-process stacked-mediator evaluation
  // (tests/mediator_test.cc StackedMediators) — the TCP hop, the LXP
  // re-encoding, and the session boundary all preserved the view.
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()),
            "schools_found[school[dir[Smith],zip[91220]],"
            "school[dir[Bar],zip[91220]],school[dir[Hart],zip[91223]]]");

  server_a.Stop();
}

/// An XML source whose readahead flights (fill-bounded exchanges) wait at a
/// gate until the test opens it, or for at most two seconds; demand
/// exchanges go straight through. Locked, so it may be exported for
/// concurrent serving.
class GatedFlightWrapper : public buffer::LxpWrapper {
 public:
  explicit GatedFlightWrapper(const xml::Document* doc) : inner_(doc) {}

  std::string GetRoot(const std::string& uri) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (budget.fills >= 1) {
      ++waiting_;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(2), [this] { return open_; });
      --waiting_;
    }
    return inner_.FillMany(holes, budget);
  }

  /// True once a flight waits at the gate (gives up after `timeout`).
  bool FlightWaiting(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return waiting_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  wrappers::XmlLxpWrapper inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool open_ = false;
};

// A source imported with RemoteSourceFactory puts its readahead flights
// really in flight: the command that issues one returns while the flight
// still waits upstream, and the answer equals the window-0 one.
TEST(FleetStackingTest, ImportedSourceFlightsAreAsync) {
  auto homes = testing::Doc(kHomes);
  GatedFlightWrapper gated(homes.get());
  SessionEnvironment env;
  env.ExportWrapper("homes.xml", &gated, /*concurrent=*/true);
  MediatorService::Options service_options;
  service_options.workers = 2;
  MediatorService service(&env, service_options);
  net::tcp::TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  auto factory = RemoteSourceFactory("127.0.0.1", server.port(), "homes.xml");

  std::unique_ptr<buffer::LxpWrapper> remote = factory();
  buffer::BufferComponent::Options options;
  options.max_in_flight = 4;
  buffer::BufferComponent buffer(remote.get(), "homes.xml", options);
  NodeId root = buffer.Root();
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(buffer.Fetch(root), "homes");
  EXPECT_TRUE(gated.FlightWaiting(std::chrono::milliseconds(1000)))
      << "Root() returned only after its readahead flight had finished";
  EXPECT_EQ(buffer.stats().readahead_issued, 1);
  EXPECT_EQ(buffer.stats().readahead_hits, 0);

  gated.Open();
  const std::string answer = testing::MaterializeToTerm(&buffer);
  EXPECT_TRUE(buffer.TakeStatus().ok());
  EXPECT_GT(buffer.stats().readahead_hits, 0);
  EXPECT_EQ(buffer.stats().readahead_fallbacks, 0);

  std::unique_ptr<buffer::LxpWrapper> remote0 = factory();
  buffer::BufferComponent window0(remote0.get(), "homes.xml");
  EXPECT_EQ(answer, testing::MaterializeToTerm(&window0));
  EXPECT_EQ(answer, kHomes);
  server.Stop();
}

}  // namespace
}  // namespace mix::fleet
