// Experiment E12 (DESIGN.md): the mixd service layer under load.
//
//   * BM_ServiceThroughput — 64 concurrent sessions of a mixed workload
//     (open, full framed materialization of the Fig. 3 answer, fidelity
//     check against an in-process evaluation, close) against worker pools
//     of 1/2/4/8: the per-session serialization must scale across
//     sessions (acceptance: >= 3x sessions/sec at 8 workers vs 1).
//     The `mismatches` counter asserts byte-identical answers: every
//     framed materialization is compared against the in-process term.
//   * BM_ServiceOverload — a burst far beyond the admission queue bound on
//     ONE session (a serial lane): the excess is refused with kUnavailable
//     error frames while every admitted request completes (`ok` +
//     `rejected` = burst, `dropped` = 0).
//   * BM_WireCodec — encode+decode cost of a d request and its sibling
//     chunk response.
#include <benchmark/benchmark.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/framed_document.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "service/service.h"
#include "service/wire.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;
using service::MediatorService;
using service::SessionEnvironment;

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

/// LXP wrapper decorator that sleeps per exchange — the sim-net's per-message
/// latency (net::ChannelOptions, 0.5 ms default) made real. This is what the
/// worker pool exists for: while one session waits on a source fill, other
/// sessions' commands run, so throughput scales with workers even on a
/// single-core host (the waits overlap; the CPU work does not have to).
class DelayedLxpWrapper : public buffer::LxpWrapper {
 public:
  DelayedLxpWrapper(std::unique_ptr<buffer::LxpWrapper> inner,
                    std::chrono::microseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  std::string GetRoot(const std::string& uri) override {
    std::this_thread::sleep_for(delay_);
    return inner_->GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    std::this_thread::sleep_for(delay_);
    return inner_->Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    std::this_thread::sleep_for(delay_);
    return inner_->FillMany(holes, budget);
  }

 private:
  std::unique_ptr<buffer::LxpWrapper> inner_;
  std::chrono::microseconds delay_;
};

struct Workload {
  std::unique_ptr<xml::Document> homes;
  std::unique_ptr<xml::Document> schools;
  std::string reference_term;  ///< in-process evaluation of the same plan

  explicit Workload(int n) {
    homes = xml::MakeHomesDoc(n, 10);
    schools = xml::MakeSchoolsDoc(n, 10);
    xml::DocNavigable homes_nav(homes.get());
    xml::DocNavigable schools_nav(schools.get());
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    sources.Register("schoolsSrc", &schools_nav);
    auto plan = mediator::CompileXmas(kFig3).ValueOrDie();
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    xml::Document out;
    reference_term = xml::ToTerm(xml::MaterializeInto(med->document(), &out));
  }

  /// `fill_delay` > 0 interposes DelayedLxpWrapper on every per-session
  /// wrapper instance (remote-source workload); 0 keeps fills CPU-only.
  void Populate(SessionEnvironment* env,
                std::chrono::microseconds fill_delay =
                    std::chrono::microseconds(0)) const {
    auto factory = [fill_delay](const xml::Document* doc) {
      return [doc, fill_delay]() -> std::unique_ptr<buffer::LxpWrapper> {
        auto inner = std::make_unique<wrappers::XmlLxpWrapper>(doc);
        if (fill_delay.count() == 0) return inner;
        return std::make_unique<DelayedLxpWrapper>(std::move(inner),
                                                   fill_delay);
      };
    };
    env->RegisterWrapperFactory("homesSrc", factory(homes.get()), "homes.xml");
    env->RegisterWrapperFactory("schoolsSrc", factory(schools.get()),
                                "schools.xml");
  }
};

std::string MaterializeFramed(client::FramedDocument* doc) {
  xml::Document out;
  return xml::ToTerm(xml::MaterializeInto(doc, &out));
}

/// 64 sessions, 16 client threads, `workers` server workers; every session
/// demand-pages its sources through wrappers with a 250 µs fill latency
/// (remote sources — the mixd deployment model). One benchmark "item" = one
/// completed session (open -> materialize -> close), so items_per_second is
/// the session throughput the acceptance bar compares: more workers overlap
/// more sessions' source waits.
void BM_ServiceThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kSessions = 64;
  constexpr int kClientThreads = 16;
  constexpr std::chrono::microseconds kFillDelay{250};
  static const Workload* workload = new Workload(24);

  int64_t sessions_done = 0;
  int64_t mismatches = 0;
  int64_t requests = 0;
  for (auto _ : state) {
    SessionEnvironment env;
    workload->Populate(&env, kFillDelay);
    MediatorService::Options options;
    options.workers = workers;
    options.queue_capacity = 4096;
    MediatorService service(&env, options);

    std::atomic<int64_t> bad{0};
    std::vector<std::thread> clients;
    clients.reserve(kClientThreads);
    for (int t = 0; t < kClientThreads; ++t) {
      clients.emplace_back([&service, &bad] {
        for (int s = 0; s < kSessions / kClientThreads; ++s) {
          auto doc = client::FramedDocument::Open(&service, kFig3);
          if (!doc.ok()) {
            ++bad;
            continue;
          }
          if (MaterializeFramed(doc.value().get()) !=
              workload->reference_term) {
            ++bad;
          }
          (void)doc.value()->Close();
        }
      });
    }
    for (auto& t : clients) t.join();
    sessions_done += kSessions;
    mismatches += bad.load();
    requests += service.Metrics().frames_in;
  }
  state.SetItemsProcessed(sessions_done);
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["sessions_per_iter"] = kSessions;
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["requests"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServiceThroughput)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// A burst of 512 fetches on one session against an 8-slot admission queue:
/// graceful degradation means every request gets exactly one response —
/// kUnavailable error frames for the overflow, real answers for the rest.
void BM_ServiceOverload(benchmark::State& state) {
  static const Workload* workload = new Workload(24);
  constexpr int kBurst = 512;

  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t other = 0;
  int64_t dropped = 0;
  for (auto _ : state) {
    SessionEnvironment env;
    workload->Populate(&env);
    MediatorService::Options options;
    options.workers = 2;
    options.queue_capacity = 8;
    MediatorService service(&env, options);
    auto doc = client::FramedDocument::Open(&service, kFig3).ValueOrDie();

    service::wire::Frame fetch;
    fetch.type = service::wire::MsgType::kFetch;
    fetch.session = doc->session_id();
    fetch.node = doc->Root();
    std::string bytes = service::wire::EncodeFrame(fetch);

    std::mutex mu;
    std::condition_variable cv;
    int done = 0;
    std::atomic<int64_t> ok_now{0}, rejected_now{0}, other_now{0};
    for (int i = 0; i < kBurst; ++i) {
      service.CallAsync(bytes, [&](std::string response) {
        auto frame = service::wire::DecodeFrame(response);
        Status s = frame.ok() ? frame.value().ToStatus()
                              : Status::Internal("undecodable response");
        if (s.ok()) {
          ++ok_now;
        } else if (s.code() == Status::Code::kUnavailable) {
          ++rejected_now;
        } else {
          ++other_now;
        }
        std::lock_guard<std::mutex> lock(mu);
        if (++done == kBurst) cv.notify_one();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == kBurst; });
    }
    ok += ok_now.load();
    rejected += rejected_now.load();
    other += other_now.load();
    dropped += kBurst - done;
  }
  state.SetItemsProcessed(ok + rejected + other);
  state.counters["ok"] = static_cast<double>(ok);
  state.counters["rejected"] = static_cast<double>(rejected);
  state.counters["other_errors"] = static_cast<double>(other);
  state.counters["dropped"] = static_cast<double>(dropped);
}
BENCHMARK(BM_ServiceOverload)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Encode+decode round trip of a kDown request carrying a nested Skolem id
/// and of its two-node sibling chunk (ids with labels) — the per-exchange
/// codec tax of going framed.
void BM_WireCodec(benchmark::State& state) {
  const NodeId id(
      "b", {int64_t{12}, std::string("H"),
            NodeId("src", {int64_t{3}, NodeId("x", {int64_t{44}})})});
  service::wire::Frame request;
  request.type = service::wire::MsgType::kDown;
  request.session = 7;
  request.node = id;
  request.number = 2;
  service::wire::Frame chunk;
  chunk.type = service::wire::MsgType::kNodeList;
  chunk.session = 7;
  chunk.nodes = {id, id};
  chunk.strings = {"med_home", "med_home"};
  int64_t bytes = 0;
  for (auto _ : state) {
    for (const service::wire::Frame* frame : {&request, &chunk}) {
      std::string encoded = service::wire::EncodeFrame(*frame);
      auto decoded = service::wire::DecodeFrame(encoded);
      benchmark::DoNotOptimize(decoded);
      bytes += static_cast<int64_t>(encoded.size());
    }
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_WireCodec);

}  // namespace
