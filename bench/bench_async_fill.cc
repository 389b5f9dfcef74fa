// Experiments E7 and E19 (DESIGN.md): the readahead window — the buffer's
// one run-ahead mechanism (BufferComponent::Options::max_in_flight) — over
// an in-process source and over real TCP.
//
//   * BM_ReadaheadPagingWalk (E7, the paper's Section 4 "asynchronous
//     prefetching strategy") — page through the first 600 books of a
//     10k-book store (25 books per page) with node-at-a-time r commands,
//     over the in-process wrapper (the sync shim: every flight has resolved
//     before the next command starts, so the run is deterministic). The
//     window sweep {0,1,2,4} reports how many fills the client had to wait
//     for (demand_fills = fills - readahead_fills), how many fills the
//     consumed flights carried and how many flights went out (a flight
//     chases up to W pages along the continuation chain, at a slow-start
//     depth of 1, 2, 4, ...), the holes per flight, and the source pages
//     read.
//
//   * BM_AsyncFillOverTcp (E19) — remote sources served over real TCP
//     loopback by wrappers with a fixed per-exchange latency (250 µs — a
//     fast LAN database). query:0 is the Fig. 3 two-source join, query:1 a
//     full scan of a wide homes source. window=0 is the serialized
//     baseline: every exchange is a demand fill, paid in full on the
//     navigation thread. window>0 puts independent holes in flight through
//     TcpFrameTransport's dispatch thread (coalescing into pipelined
//     batches), so wrapper latency overlaps navigation and the *other*
//     source's exchanges. A flight carries up to W queued holes (both
//     sources ship every element with a nested hole for its children), so
//     `holes_per_flight` reads how many one exchange answered. Every
//     materialized answer is checked against the in-process evaluation of
//     the same plan (`mismatches` must stay 0); the wall-clock ratio
//     window=0 / window=8 is the tracked speedup.
//
// Each benchmark runs 5 repetitions and reports only the aggregates
// (mean/median/stddev plus `min`): single runs on a shared VM vary too much
// to compare.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "service/service.h"
#include "service/wire.h"
#include "wrappers/bookstore.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace {

using namespace mix;
using net::tcp::TcpFrameTransport;
using net::tcp::TcpServer;
using net::tcp::TcpServerOptions;
using net::tcp::TcpTransportOptions;
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

const char* kScanQuery = R"(
CONSTRUCT <all> $H {$H} </all> {}
WHERE homesSrc homes.home $H
)";

constexpr auto kWrapperLatency = std::chrono::microseconds(250);

/// XmlLxpWrapper with a fixed per-exchange latency — a remote source whose
/// answers cost wire+execution time no matter how small the fill is. The
/// sleep happens OUTSIDE the lock and the cheap document walk inside it, so
/// concurrent exchanges overlap their latency but never race on the inner
/// wrapper — the shape a real remote database has, and what the service's
/// concurrent-export mode (`ExportWrapper(..., concurrent = true)`)
/// requires of a wrapper.
class SleepyXmlWrapper : public buffer::LxpWrapper {
 public:
  explicit SleepyXmlWrapper(const xml::Document* doc) : inner_(doc) {}

  std::string GetRoot(const std::string& uri) override {
    std::this_thread::sleep_for(kWrapperLatency);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    std::this_thread::sleep_for(kWrapperLatency);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    std::this_thread::sleep_for(kWrapperLatency);
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.FillMany(holes, budget);
  }

 private:
  std::mutex mu_;
  wrappers::XmlLxpWrapper inner_;
};

/// Holes a readahead flight asked for, on average (0 without flights).
double HolesPerFlight(const buffer::BufferComponent::Stats& stats) {
  return stats.readahead_issued == 0
             ? 0.0
             : static_cast<double>(stats.readahead_holes) /
                   static_cast<double>(stats.readahead_issued);
}

void BM_ReadaheadPagingWalk(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  wrappers::BookstoreSite site("store",
                               wrappers::MakeCatalog({10000, 42, 0}), 25);
  buffer::BufferComponent::Stats stats;
  int64_t pages_fetched = 0;
  for (auto _ : state) {
    wrappers::BookstoreLxpWrapper wrapper(&site);
    buffer::BufferComponent::Options options;
    options.max_in_flight = window;
    buffer::BufferComponent buffer(&wrapper, "http://store", options);
    std::optional<NodeId> book = buffer.Down(buffer.Root());
    for (int i = 1; i < 600 && book.has_value(); ++i) {
      benchmark::DoNotOptimize(buffer.Fetch(*book));
      book = buffer.Right(*book);
    }
    stats = buffer.stats();
    pages_fetched = wrapper.pages_fetched();
  }
  state.counters["window"] = static_cast<double>(window);
  state.counters["demand_fills"] =
      static_cast<double>(stats.fills - stats.readahead_fills);
  state.counters["readahead_fills"] =
      static_cast<double>(stats.readahead_fills);
  state.counters["readahead_hits"] = static_cast<double>(stats.readahead_hits);
  state.counters["readahead_issued"] =
      static_cast<double>(stats.readahead_issued);
  state.counters["holes_per_flight"] = HolesPerFlight(stats);
  state.counters["pages_fetched"] = static_cast<double>(pages_fetched);
}
BENCHMARK(BM_ReadaheadPagingWalk)
    ->ArgName("window")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Apply(bench::FiveRepetitions);

/// One query over remote homes (and, for the join, schools) sources, with
/// its in-process reference answer.
struct TcpWorkload {
  std::unique_ptr<xml::Document> homes;
  std::unique_ptr<xml::Document> schools;  ///< null for the scan
  mediator::PlanPtr plan;
  std::string reference_term;

  TcpWorkload(const char* query, int homes_n, int schools_n) {
    homes = xml::MakeHomesDoc(homes_n, 10);
    if (schools_n > 0) schools = xml::MakeSchoolsDoc(schools_n, 10);
    xml::DocNavigable homes_nav(homes.get());
    std::unique_ptr<xml::DocNavigable> schools_nav;
    mediator::SourceRegistry sources;
    sources.Register("homesSrc", &homes_nav);
    if (schools != nullptr) {
      schools_nav = std::make_unique<xml::DocNavigable>(schools.get());
      sources.Register("schoolsSrc", schools_nav.get());
    }
    plan = mediator::CompileXmas(query).ValueOrDie();
    auto med = mediator::LazyMediator::Build(*plan, sources).ValueOrDie();
    xml::Document out;
    reference_term = xml::ToTerm(xml::MaterializeInto(med->document(), &out));
  }
};

const TcpWorkload& WorkloadFor(int query) {
  static const TcpWorkload* join = new TcpWorkload(kFig3, 16, 16);
  static const TcpWorkload* scan = new TcpWorkload(kScanQuery, 64, 0);
  return query == 0 ? *join : *scan;
}

/// One remote source as the client sees it: a FramedLxpWrapper over its own
/// TCP connection, demand-paged by a BufferComponent.
struct RemoteSource {
  RemoteSource(const TcpTransportOptions& connect, const std::string& uri,
               int window)
      : transport(connect),
        wrapper(&transport, uri),
        buffer(&wrapper, uri, Options(window)) {}
  static buffer::BufferComponent::Options Options(int window) {
    buffer::BufferComponent::Options options;
    options.max_in_flight = window;
    return options;
  }
  TcpFrameTransport transport;
  service::wire::FramedLxpWrapper wrapper;
  buffer::BufferComponent buffer;
};

void BM_AsyncFillOverTcp(benchmark::State& state) {
  const int query = static_cast<int>(state.range(0));
  const int window = static_cast<int>(state.range(1));
  const TcpWorkload& workload = WorkloadFor(query);

  SessionEnvironment env;
  SleepyXmlWrapper homes_wrapper(workload.homes.get());
  env.ExportWrapper("homes.xml", &homes_wrapper, /*concurrent=*/true);
  std::unique_ptr<SleepyXmlWrapper> schools_wrapper;
  if (workload.schools != nullptr) {
    schools_wrapper =
        std::make_unique<SleepyXmlWrapper>(workload.schools.get());
    env.ExportWrapper("schools.xml", schools_wrapper.get(),
                      /*concurrent=*/true);
  }
  MediatorService::Options options;
  options.workers = 8;
  options.queue_capacity = 4096;
  MediatorService service(&env, options);
  TcpServer server(&service, TcpServerOptions{});
  if (!server.Start().ok()) {
    state.SkipWithError("TcpServer failed to start");
    return;
  }

  TcpTransportOptions connect;
  connect.port = server.port();
  int64_t runs = 0;
  int64_t mismatches = 0;
  int64_t async_ops = 0;
  int64_t async_batches = 0;
  buffer::BufferComponent::Stats flights;
  for (auto _ : state) {
    std::vector<std::unique_ptr<RemoteSource>> remotes;
    mediator::SourceRegistry sources;
    remotes.push_back(
        std::make_unique<RemoteSource>(connect, "homes.xml", window));
    sources.Register("homesSrc", &remotes.back()->buffer);
    if (workload.schools != nullptr) {
      remotes.push_back(
          std::make_unique<RemoteSource>(connect, "schools.xml", window));
      sources.Register("schoolsSrc", &remotes.back()->buffer);
    }
    auto med =
        mediator::LazyMediator::Build(*workload.plan, sources).ValueOrDie();
    xml::Document out;
    if (xml::ToTerm(xml::MaterializeInto(med->document(), &out)) !=
        workload.reference_term) {
      ++mismatches;
    }
    ++runs;
    for (const auto& r : remotes) {
      async_ops += r->transport.async_ops();
      async_batches += r->transport.async_batches();
      const buffer::BufferComponent::Stats stats = r->buffer.stats();
      flights.readahead_issued += stats.readahead_issued;
      flights.readahead_holes += stats.readahead_holes;
      flights.readahead_hits += stats.readahead_hits;
    }
  }
  server.Stop();
  state.SetItemsProcessed(runs);
  state.counters["query"] = static_cast<double>(query);
  state.counters["window"] = static_cast<double>(window);
  state.counters["mismatches"] = static_cast<double>(mismatches);
  state.counters["async_ops"] = benchmark::Counter(
      static_cast<double>(async_ops), benchmark::Counter::kAvgIterations);
  state.counters["async_batches"] = benchmark::Counter(
      static_cast<double>(async_batches), benchmark::Counter::kAvgIterations);
  state.counters["readahead_hits"] =
      benchmark::Counter(static_cast<double>(flights.readahead_hits),
                         benchmark::Counter::kAvgIterations);
  state.counters["holes_per_flight"] = HolesPerFlight(flights);
}
BENCHMARK(BM_AsyncFillOverTcp)
    ->ArgNames({"query", "window"})
    ->Args({0, 0})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({1, 0})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Apply(bench::FiveRepetitions);

}  // namespace
