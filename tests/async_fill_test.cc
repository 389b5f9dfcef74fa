// Async fill engine tests (DESIGN.md §4 "Async fill engine"):
//
//   * FillFuture / PushMailbox primitives — first-writer-wins completion,
//     inline callbacks, drop-after-close cancellation;
//   * readahead equivalence — a buffer with a concurrent readahead window
//     materializes byte-identically to the demand-only baseline, on clean
//     sources AND under the PR 4 fault matrix (p ∈ {0.05, 0.2} × seeds);
//   * degraded holes stay isolated with readahead on;
//   * TcpFrameTransport::RoundTripAsync — concurrent submissions complete
//     exactly once, coalesce into pipelined batches, and teardown with ops
//     pending fails them instead of dropping them;
//   * the background prefetcher — fills land in the shared SourceCache and
//     in the submitting session's mailbox, within the per-job budget;
//   * thread-safe Channel/SimClock accounting under concurrent senders.
//
// The whole file is in the CI TSan run: it exercises every cross-thread
// edge the engine added (dispatch thread vs. submitters, worker pool vs.
// session navigation, concurrent channel charging).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
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
#include "service/prefetcher.h"
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
using buffer::PushedFill;
using buffer::PushMailbox;
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
/// that chunked fills leave a deep hole queue for readahead/prefetch.
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
/// so prefetch/readahead actually have holes to run ahead on.
const char* kScanQuery = R"(
CONSTRUCT <all> $H {$H} </all> {}
WHERE homesSrc homes.home $H
)";

// ---------------------------------------------------------------------------
// Primitives: FillFuture and PushMailbox.
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

TEST(PushMailboxTest, CloseDropsLaterDeliveries) {
  PushMailbox box;
  EXPECT_TRUE(box.Deliver(PushedFill{"h1", {Fragment::Element("a")}}));
  EXPECT_EQ(box.delivered(), 1);

  box.Close();
  box.Close();  // idempotent
  EXPECT_TRUE(box.closed());
  EXPECT_FALSE(box.Deliver(PushedFill{"h2", {}}));
  EXPECT_EQ(box.dropped(), 1);
  // Pending deliveries were discarded with the close.
  EXPECT_TRUE(box.Drain().empty());
}

TEST(PushMailboxTest, BoundsPendingDeliveries) {
  PushMailbox box;
  for (size_t i = 0; i < PushMailbox::kMaxPending; ++i) {
    EXPECT_TRUE(box.Deliver(PushedFill{"h" + std::to_string(i), {}}));
  }
  EXPECT_FALSE(box.Deliver(PushedFill{"overflow", {}}));
  EXPECT_EQ(box.Drain().size(), PushMailbox::kMaxPending);
  EXPECT_TRUE(box.Deliver(PushedFill{"after-drain", {}}));
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

TEST(ReadaheadTest, ByteIdenticalUnderFaultMatrix) {
  auto homes = testing::Doc(WideHomesTerm(16));
  wrappers::XmlLxpWrapper clean(homes.get());
  BufferComponent baseline(&clean, "homes.xml");
  const std::string expected = testing::MaterializeToTerm(&baseline);

  int64_t total_faults = 0;
  int64_t total_fallbacks = 0;
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
      opts.max_in_flight = 3;
      BufferComponent buf(&faulty, "homes.xml", opts);

      // A faulted readahead flight falls back to the demand path, whose
      // retries absorb it — the answer never changes.
      EXPECT_EQ(testing::MaterializeToTerm(&buf), expected)
          << "p=" << p << " seed=" << seed;
      BufferComponent::Stats st = buf.stats();
      EXPECT_EQ(st.degraded_holes, 0);
      EXPECT_TRUE(buf.TakeStatus().ok());
      total_faults += st.faults;
      total_fallbacks += st.readahead_fallbacks;
    }
  }
  EXPECT_GT(total_faults, 0);
  EXPECT_GT(total_fallbacks, 0);  // some flights definitely failed
}

/// Fails every exchange touching one specific hole id (Try and Begin paths
/// both route through TryFillMany here).
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
  Status TryFill(const std::string& hole_id, FragmentList* out) override {
    seen.push_back(hole_id);
    return inner_->TryFill(hole_id, out);
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

/// Internally locked wrapper, as required by concurrent export.
class LockedXmlWrapper : public buffer::LxpWrapper {
 public:
  explicit LockedXmlWrapper(const xml::Document* doc) : inner_(doc) {}
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
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.FillMany(holes, budget);
  }

 private:
  std::mutex mu_;
  wrappers::XmlLxpWrapper inner_;
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

// ---------------------------------------------------------------------------
// Background prefetcher: fills land in cache + mailbox within budget.
// ---------------------------------------------------------------------------

TEST(BackgroundPrefetchTest, FillsLandInCacheAndMailbox) {
  auto homes = testing::Doc(WideHomesTerm(40));
  SessionEnvironment env;
  SessionEnvironment::WrapperOptions wo;
  wo.prefetch_per_command = 6;
  wo.background_prefetch = true;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&homes] { return std::make_unique<wrappers::XmlLxpWrapper>(homes.get()); },
      "homes.xml", wo);

  MediatorService::Options sopts;
  sopts.source_cache_bytes = 4 << 20;
  sopts.prefetch_workers = 2;
  sopts.prefetch_fills_per_job = 8;
  MediatorService service(&env, sopts);
  ASSERT_NE(service.prefetcher(), nullptr);

  // Baseline answer from a prefetcher-less service over the same source.
  std::string expected;
  {
    MediatorService plain(&env, {});
    auto doc = FramedDocument::Open(&plain, kScanQuery).ValueOrDie();
    expected = testing::MaterializeToTerm(doc.get());
  }

  auto doc = FramedDocument::Open(&service, kScanQuery).ValueOrDie();
  // Touch the first answer element only: the demand path fills a chunk,
  // the prefetch sink hands the leftover holes to the worker pool.
  NodeId root = doc->Root();
  ASSERT_TRUE(root.valid());
  ASSERT_TRUE(doc->Down(root).has_value());
  service.prefetcher()->Drain();

  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_GT(snap.prefetch_jobs, 0);
  EXPECT_GT(snap.prefetch_exchanges, 0);
  EXPECT_GT(snap.prefetch_fills, 0);
  EXPECT_GT(snap.prefetch_published, 0);   // SourceCache got warmed
  EXPECT_GT(snap.prefetch_delivered, 0);   // the session mailbox too
  EXPECT_EQ(snap.prefetch_failures, 0);
  // Budget: one exchange per job, chase bounded by fills_per_job.
  EXPECT_LE(snap.prefetch_exchanges, snap.prefetch_jobs);
  EXPECT_LE(snap.prefetch_fills,
            snap.prefetch_exchanges * sopts.prefetch_fills_per_job);
  EXPECT_NE(snap.ToString().find("prefetch{"), std::string::npos);

  // The rest of the dialogue is byte-identical — background fills only
  // relocate work, never change answers — and some of it was served from
  // the pushed/cached results instead of demand exchanges.
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()), expected);
  auto session = service.registry().Find(doc->session_id());
  ASSERT_NE(session, nullptr);
  session->RefreshSourceMetrics();
  EXPECT_GT(session->metrics().pushed_applied + session->metrics().cache_hits,
            0);
}

TEST(BackgroundPrefetchTest, SessionCloseCancelsCleanly) {
  auto homes = testing::Doc(WideHomesTerm(40));
  SessionEnvironment env;
  SessionEnvironment::WrapperOptions wo;
  wo.prefetch_per_command = 6;
  wo.background_prefetch = true;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&homes] { return std::make_unique<wrappers::XmlLxpWrapper>(homes.get()); },
      "homes.xml", wo);

  MediatorService::Options sopts;
  sopts.source_cache_bytes = 4 << 20;
  sopts.prefetch_workers = 2;
  MediatorService service(&env, sopts);

  // Open, navigate one step (queues background jobs), close immediately —
  // the workers may still be filling. Deliveries into the closed mailbox
  // are dropped on the floor; nothing touches the destroyed session (ASan
  // guards the lifetime, this test guards the counters).
  for (int round = 0; round < 4; ++round) {
    auto doc = FramedDocument::Open(&service, kScanQuery).ValueOrDie();
    NodeId root = doc->Root();
    ASSERT_TRUE(root.valid());
    ASSERT_TRUE(doc->Down(root).has_value());
    EXPECT_TRUE(service.registry().Close(doc->session_id()).ok());
  }
  service.prefetcher()->Drain();
  ServiceMetricsSnapshot snap = service.Metrics();
  EXPECT_GT(snap.prefetch_jobs, 0);
  EXPECT_EQ(snap.prefetch_failures, 0);
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
