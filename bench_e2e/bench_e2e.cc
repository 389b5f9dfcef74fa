// End-to-end benchmark of the mixd mediator with a per-layer ladder.
//
//   bench_e2e --workload browse|zipf_views|scan_churn --seed N --seconds S
//             --trace 0|1
//
// One process generates the sources from the seed, starts a real mixd
// (MediatorService behind net::tcp::TcpServer on loopback), drives it from
// at most four client threads, and checks every answer byte for byte
// against mediator::EvaluateReference over the same sources. The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}; the
// line before it (prefixed "# env ") records the host, the build, the seed,
// the server thread counts, and the sample count behind every percentile.
//
// --trace 0 reports the end-to-end metrics. --trace 1 re-runs the workload
// with timing decorators at the layers' public seams (frame transport,
// wrapper factories, CountingNavigable, Metrics(), the session registry)
// and then runs the same session script on a ladder of stacks:
//   tcp     FramedDocument over TcpFrameTransport into mixd
//   inproc  FramedDocument over MediatorService::RoundTrip
//   buffer  bare LazyMediator over BufferComponent over the wrappers
//   doc     bare LazyMediator over DocNavigable (materialized sources)
// All rungs run the plan the service's plan cache compiled and optimized.
// Adjacent rungs differ by one layer; README.md explains how the per-layer
// metrics are derived from them.
#include <malloc.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "client/framed_document.h"
#include "core/navigable.h"
#include "harness.h"
#include "mediator/instantiate.h"
#include "mediator/plan.h"
#include "mediator/reference_eval.h"
#include "mediator/translate.h"
#include "net/sim_net.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "rdb/database.h"
#include "service/service.h"
#include "service/wire.h"
#include "wrappers/relational_wrapper.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"
#include "xml/materialize.h"
#include "xml/tree.h"

namespace bench {
namespace {

using namespace mix;
using service::MediatorService;
using service::SessionEnvironment;

// ---------------------------------------------------------------------------
// Fixed configuration. Server thread counts are part of the benchmark's
// definition and are echoed in the "# env" line of every result.

constexpr int kServiceWorkers = 4;
constexpr int kServiceEventLoops = 2;
constexpr int kBackendWorkers = 4;
constexpr int kBackendEventLoops = 1;
/// Closed-loop client connections (browse, scan_churn, every ladder rung).
constexpr int kClosedClients = 2;
/// Open-loop generator threads, one connection each (zipf_views with
/// --rate R: Poisson arrivals at R sessions/s instead of the closed loop).
constexpr int kOpenLoopWorkers = 4;
constexpr double kZipfExponent = 1.1;
/// commands_per_s (and the windowed p99 in the "# env" line) is a median
/// over windows of this length.
constexpr int64_t kWindowNs = 1'000'000'000;
/// Modeled per-exchange latency of the sources: zipf_views' XML documents
/// and relational databases, and scan_churn's exported sources. The
/// relational latency dominates the slowest zipf_views sessions.
constexpr int64_t kZipfXmlLatencyNs = 250'000;
constexpr int64_t kZipfDbLatencyNs = 1'000'000;
constexpr int64_t kChurnSourceLatencyNs = 100'000;
/// scan_churn: readahead window and invalidation period.
constexpr int kChurnReadahead = 4;
constexpr int kInvalidateEvery = 8;
/// glibc malloc arenas. With the default (8 per CPU) the dozen server and
/// client threads spread over as many heaps, and peak_rss_mb swings by
/// ±10% with which thread happened to allocate what.
constexpr int kMallocArenas = 2;
/// setup_s is the median of at least kSetupRepeats set-ups, repeated until
/// they took kSetupMinNs together (browse's takes a few ms) or there are
/// kSetupMaxRepeats. Each runs on a fresh thread, so the scheduler places
/// them anew instead of keeping all of them on the main thread's CPU.
constexpr int kSetupRepeats = 9;
constexpr int kSetupMaxRepeats = 99;
constexpr int64_t kSetupMinNs = 1'000'000'000;

// Source sizes. Zip codes are dealt out evenly and then shuffled by the
// seed, so the seed changes which rows match but never how many: answer
// sizes (and so the work per session) are the same for every seed.
constexpr int kXmlRows = 32;
constexpr int kXmlZips = 8;
constexpr int kRelRows = 256;
constexpr int kRelZips = 64;
constexpr int kScanRows = 512;

// ---------------------------------------------------------------------------
// Source generation.

std::vector<int> BalancedZips(int n, int zips, Rng* rng) {
  std::vector<int> out(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<size_t>(i)] = 91000 + i % zips;
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng->Uniform(i)]);
  }
  return out;
}

std::string Digits(uint64_t v, int width) {
  std::string s(static_cast<size_t>(width), '0');
  for (int i = width - 1; i >= 0 && v > 0; --i, v /= 10) {
    s[static_cast<size_t>(i)] = static_cast<char>('0' + v % 10);
  }
  return s;
}

/// <root><item><tag>A-123456</tag><zip>91003</zip></item>...</root>
std::unique_ptr<xml::Document> MakeXmlSource(const char* root,
                                             const char* item, const char* tag,
                                             int n, int zips, Rng* rng) {
  auto doc = std::make_unique<xml::Document>();
  xml::Node* r = doc->NewElement(root);
  for (int z : BalancedZips(n, zips, rng)) {
    xml::Node* it = doc->NewElement(item);
    xml::Node* t = doc->NewElement(tag);
    doc->AppendChild(t, doc->NewText("A-" + Digits(rng->Uniform(1000000), 6)));
    xml::Node* zip = doc->NewElement("zip");
    doc->AppendChild(zip, doc->NewText(std::to_string(z)));
    doc->AppendChild(it, t);
    doc->AppendChild(it, zip);
    doc->AppendChild(r, it);
  }
  doc->set_root(r);
  return doc;
}

std::unique_ptr<rdb::Database> MakeTable(const char* db_name,
                                         const char* table, const char* col,
                                         int rows, int zips, Rng* rng) {
  auto db = std::make_unique<rdb::Database>(db_name);
  rdb::Schema schema({{col, rdb::Type::kString}, {"zip", rdb::Type::kInt}});
  rdb::Table* t = db->CreateTable(table, schema).ValueOrDie();
  for (int z : BalancedZips(rows, zips, rng)) {
    (void)t->Insert({rdb::Value("R-" + Digits(rng->Uniform(1000000), 6)),
                     rdb::Value(int64_t{z})});
  }
  return db;
}

/// The wrapper's view `uri` of `db`, materialized through a buffer.
std::unique_ptr<xml::Document> MaterializeView(const rdb::Database* db,
                                               const std::string& uri) {
  wrappers::RelationalLxpWrapper wrapper(db);
  buffer::BufferComponent buf(&wrapper, uri);
  return xml::Materialize(&buf);
}

// ---------------------------------------------------------------------------
// Answer rendering: one "depth label" line per node in pre-order. The client
// side renders what it navigated, the oracle renders EvaluateReference's
// tree, and the two strings are compared byte for byte.

void AppendLine(std::string* out, int depth, std::string_view label) {
  out->append(std::to_string(depth));
  out->push_back(' ');
  out->append(label);
  out->push_back('\n');
}

void RenderNode(const xml::Node* n, int depth, std::string* out) {
  AppendLine(out, depth, n->label);
  for (const xml::Node* c : n->children) RenderNode(c, depth + 1, out);
}

void RenderEntries(const std::vector<SubtreeEntry>& entries, int shift,
                   std::string* out) {
  for (const SubtreeEntry& e : entries) {
    AppendLine(out, e.depth + shift, e.label.name());
  }
}

Result<std::string> ReferenceAnswer(const std::string& text,
                                    const mediator::ReferenceSources& sources) {
  Result<mediator::PlanPtr> plan = mediator::CompileXmas(text);
  if (!plan.ok()) return plan.status();
  xml::Document scratch;
  Result<const xml::Node*> root =
      mediator::EvaluateReference(*plan.value(), sources, &scratch);
  if (!root.ok()) return root.status();
  std::string out;
  RenderNode(root.value(), 0, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Measurement decorators at the layers' public seams.

/// Exchange samples of one seam, shared by every thread that reports to it.
/// `ns` is the exchange's latency; `blocking_ns` the part the calling thread
/// spent inside the call (all of it, except for an async flight's submit).
class Meter {
 public:
  void Add(int64_t ns, int64_t blocking_ns, int64_t holes, int64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    totals_.ns.push_back(static_cast<double>(ns));
    totals_.blocking_ns += blocking_ns;
    totals_.holes += holes;
    totals_.bytes += bytes;
  }
  void Add(int64_t ns, int64_t holes, int64_t bytes) {
    Add(ns, ns, holes, bytes);
  }
  struct Totals {
    std::vector<double> ns;
    int64_t blocking_ns = 0;
    int64_t holes = 0;
    int64_t bytes = 0;
  };
  Totals Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(totals_, Totals());
  }

 private:
  std::mutex mu_;
  Totals totals_;
};

/// An in-process source: a wrapper behind a fixed modeled latency per
/// exchange. The sleep runs outside the lock and the wrapper call inside
/// it, so concurrent exchanges overlap their latency but never race on the
/// wrapper (what ExportWrapper(..., concurrent = true) requires). `meter`
/// (optional) times the wrapper call itself: lxp.source_us.
class ModeledSource : public buffer::LxpWrapper {
 public:
  ModeledSource(std::unique_ptr<buffer::LxpWrapper> inner, int64_t latency_ns,
                Meter* meter)
      : inner_(std::move(inner)), latency_ns_(latency_ns), meter_(meter) {}

  buffer::PushdownCapability Capability() const override {
    return inner_->Capability();
  }
  std::string GetRoot(const std::string& uri) override {
    Wait();
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t t0 = NowNs();
    std::string root = inner_->GetRoot(uri);
    Record(t0, 1, static_cast<int64_t>(root.size()));
    return root;
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    Wait();
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t t0 = NowNs();
    buffer::FragmentList out = inner_->Fill(hole_id);
    Record(t0, 1, buffer::FragmentListByteSize(out));
    return out;
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    Wait();
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t t0 = NowNs();
    buffer::HoleFillList out = inner_->FillMany(holes, budget);
    Record(t0, static_cast<int64_t>(holes.size()),
           buffer::HoleFillListByteSize(out));
    return out;
  }

 private:
  /// Sleeps most of the latency and spins the last stretch, so the modeled
  /// latency does not inherit the host's timer overshoot.
  void Wait() const {
    if (latency_ns_ <= 0) return;
    const int64_t until = NowNs() + latency_ns_;
    if (latency_ns_ > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(latency_ns_ - kSpinNs));
    }
    while (NowNs() < until) {
    }
  }
  static constexpr int64_t kSpinNs = 60'000;
  void Record(int64_t t0, int64_t holes, int64_t bytes) {
    if (meter_ != nullptr) meter_->Add(NowNs() - t0, holes, bytes);
  }

  std::mutex mu_;
  std::unique_ptr<buffer::LxpWrapper> inner_;
  int64_t latency_ns_;
  Meter* meter_;
};

/// Session-side timing of every exchange the buffer issues (traced runs):
/// lxp.exchange_us, holes and bytes per exchange, and the wrapper time the
/// buffer rung subtracts.
class MeteredWrapper : public buffer::LxpWrapper {
 public:
  MeteredWrapper(std::unique_ptr<buffer::LxpWrapper> inner, Meter* meter)
      : inner_(std::move(inner)), meter_(meter) {}

  buffer::PushdownCapability Capability() const override {
    return inner_->Capability();
  }
  std::string GetRoot(const std::string& uri) override {
    std::string out;
    (void)TryGetRoot(uri, &out);
    return out;
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    buffer::FragmentList out;
    (void)TryFill(hole_id, &out);
    return out;
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    buffer::HoleFillList out;
    (void)TryFillMany(holes, budget, &out);
    return out;
  }
  Status TryGetRoot(const std::string& uri, std::string* out) override {
    const int64_t t0 = NowNs();
    Status s = inner_->TryGetRoot(uri, out);
    meter_->Add(NowNs() - t0, 1, static_cast<int64_t>(out->size()));
    return s;
  }
  Status TryFill(const std::string& hole_id,
                 buffer::FragmentList* out) override {
    const int64_t t0 = NowNs();
    Status s = inner_->TryFill(hole_id, out);
    meter_->Add(NowNs() - t0, 1, buffer::FragmentListByteSize(*out));
    return s;
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const buffer::FillBudget& budget,
                     buffer::HoleFillList* out) override {
    const int64_t t0 = NowNs();
    Status s = inner_->TryFillMany(holes, budget, out);
    meter_->Add(NowNs() - t0, static_cast<int64_t>(holes.size()),
                buffer::HoleFillListByteSize(*out));
    return s;
  }
  /// Readahead flights are timed from submit to completion, on the
  /// completing thread; only the submit blocks the caller. The buffer gets
  /// a future of its own, completed from the inner one's callback:
  /// FillFuture::Complete runs its callback after waking waiters, so a
  /// callback on the future the buffer Wait()s on would read the response
  /// while Wait() moves it out.
  std::shared_ptr<buffer::FillFuture> BeginFillMany(
      const std::vector<std::string>& holes,
      const buffer::FillBudget& budget) override {
    const int64_t t0 = NowNs();
    auto inner = inner_->BeginFillMany(holes, budget);
    const int64_t submit_ns = NowNs() - t0;
    auto outer = std::make_shared<buffer::FillFuture>();
    inner->OnComplete([meter = meter_, outer, t0, submit_ns,
                       n = holes.size()](const Status& status,
                                         const buffer::HoleFillList& fills) {
      meter->Add(NowNs() - t0, submit_ns, static_cast<int64_t>(n),
                 buffer::HoleFillListByteSize(fills));
      outer->Complete(status, fills);
    });
    return outer;
  }

 private:
  std::unique_ptr<buffer::LxpWrapper> inner_;
  Meter* meter_;
};

/// Counters of the TCP client transports the remote sources dial.
struct TransportTally {
  std::atomic<int64_t> async_ops{0};
  std::atomic<int64_t> async_batches{0};
};

/// A source served by another mixd: owns one TCP connection and the framed
/// LXP stub over it (one per session, like fleet::RemoteLxpSource), and
/// folds the connection's async counters into `tally` when it closes.
class RemoteSource : public buffer::LxpWrapper {
 public:
  RemoteSource(uint16_t port, std::string uri, TransportTally* tally)
      : transport_(std::make_unique<net::tcp::TcpFrameTransport>(
            net::tcp::TcpTransportOptions{"127.0.0.1", port})),
        stub_(transport_.get(), std::move(uri)),
        tally_(tally) {}
  ~RemoteSource() override {
    tally_->async_ops += transport_->async_ops();
    tally_->async_batches += transport_->async_batches();
  }
  RemoteSource(const RemoteSource&) = delete;
  RemoteSource& operator=(const RemoteSource&) = delete;

  std::string GetRoot(const std::string& uri) override {
    return stub_.GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    return stub_.Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    return stub_.FillMany(holes, budget);
  }
  Status TryGetRoot(const std::string& uri, std::string* out) override {
    return stub_.TryGetRoot(uri, out);
  }
  Status TryFill(const std::string& hole_id,
                 buffer::FragmentList* out) override {
    return stub_.TryFill(hole_id, out);
  }
  Status TryFillMany(const std::vector<std::string>& holes,
                     const buffer::FillBudget& budget,
                     buffer::HoleFillList* out) override {
    return stub_.TryFillMany(holes, budget, out);
  }
  std::shared_ptr<buffer::FillFuture> BeginFillMany(
      const std::vector<std::string>& holes,
      const buffer::FillBudget& budget) override {
    return stub_.BeginFillMany(holes, budget);
  }

 private:
  std::unique_ptr<net::tcp::TcpFrameTransport> transport_;
  service::wire::FramedLxpWrapper stub_;
  TransportTally* tally_;
};

/// Client-side frame timing (traced runs): RoundTrip time, frames and
/// bytes. One per client thread.
class TimedTransport : public service::wire::FrameTransport {
 public:
  explicit TimedTransport(service::wire::FrameTransport* inner)
      : inner_(inner) {}
  Result<std::string> RoundTrip(const std::string& request) override {
    const int64_t t0 = NowNs();
    Result<std::string> r = inner_->RoundTrip(request);
    last_ns_ = NowNs() - t0;
    ++round_trips_;
    bytes_ += static_cast<int64_t>(request.size()) +
              (r.ok() ? static_cast<int64_t>(r.value().size()) : 0);
    return r;
  }
  void RoundTripAsync(std::string request, AsyncDone done) override {
    inner_->RoundTripAsync(std::move(request), std::move(done));
  }
  /// Duration of the most recent RoundTrip.
  int64_t last_ns() const { return last_ns_; }
  int64_t round_trips() const { return round_trips_; }
  int64_t bytes() const { return bytes_; }

 private:
  service::wire::FrameTransport* inner_;
  int64_t last_ns_ = 0;
  int64_t round_trips_ = 0;
  int64_t bytes_ = 0;
};

/// Forwards every navigation to a navigable owned elsewhere.
class Borrowed : public Navigable {
 public:
  explicit Borrowed(Navigable* inner) : inner_(inner) {}
  NodeId Root() override { return inner_->Root(); }
  std::optional<NodeId> Down(const NodeId& p) override {
    return inner_->Down(p);
  }
  std::optional<NodeId> Right(const NodeId& p) override {
    return inner_->Right(p);
  }
  Label Fetch(const NodeId& p) override { return inner_->Fetch(p); }
  Atom FetchAtom(const NodeId& p) override { return inner_->FetchAtom(p); }
  std::optional<NodeId> SelectSibling(const NodeId& p,
                                      const LabelPredicate& pred) override {
    return inner_->SelectSibling(p, pred);
  }
  std::optional<NodeId> NthChild(const NodeId& p, int64_t index) override {
    return inner_->NthChild(p, index);
  }
  void DownAll(const NodeId& p, std::vector<NodeId>* out) override {
    inner_->DownAll(p, out);
  }
  void NextSiblings(const NodeId& p, int64_t limit,
                    std::vector<NodeId>* out) override {
    inner_->NextSiblings(p, limit, out);
  }
  void FetchSubtree(const NodeId& p, int64_t depth,
                    std::vector<SubtreeEntry>* out) override {
    inner_->FetchSubtree(p, depth, out);
  }

 private:
  Navigable* inner_;
};

struct DocNavHolder {
  explicit DocNavHolder(const xml::Document* doc) : doc_nav(doc) {}
  xml::DocNavigable doc_nav;
};

/// An owned DocNavigable whose navigations count into `stats` (Def. 2).
class CountedDoc : private DocNavHolder, public CountingNavigable {
 public:
  CountedDoc(const xml::Document* doc, NavStats* stats)
      : DocNavHolder(doc), CountingNavigable(&doc_nav, stats) {}
};

void CollectUriOverrides(const mediator::PlanNode& node,
                         std::map<std::string, std::string>* out) {
  if (node.kind == mediator::PlanNode::Kind::kSource &&
      !node.source_uri.empty()) {
    (*out)[node.source_name] = node.source_uri;
  }
  for (const auto& child : node.children) CollectUriOverrides(*child, out);
}

// ---------------------------------------------------------------------------
// Queries.

enum class Script {
  kBrowse,  ///< d/r/f walk of the whole answer, node by node
  kFetch,   ///< Root, one full-depth FetchSubtree
  kScan,    ///< first child by d, then NextSiblings pages + FetchSubtree each
};

/// Result-element name an ad-hoc query carries in its text and oracle
/// answer; each arrival replaces it with a fresh name, so no cache tier
/// keyed by query text can serve the session.
constexpr char kAdhocLabel[] = "adhoc_label";

/// One query of a workload's family.
struct Query {
  std::string text;
  std::string expected;
  Script script = Script::kFetch;
  bool adhoc = false;
  /// Relational sources whose pushed-down views the doc rung needs.
  bool relational = false;
};

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2)";

/// Variant i of Fig. 3: 0 is the plain join, then the join narrowed to one
/// zip on the homes side, then on the schools side.
std::string Fig3Narrowed(int i) {
  if (i == 0) return kFig3;
  const int k = (i - 1) % (2 * kXmlZips);
  return std::string(kFig3) + (k < kXmlZips ? " AND $V1 = '" : " AND $V2 = '") +
         std::to_string(91000 + k % kXmlZips) + "'";
}

/// Variant i of the zip view: 0 is the base view (the donor), the others
/// are narrowed by `<` or `<=` a zip, so the base view subsumes them.
std::string ZipView(int i) {
  std::string q =
      "CONSTRUCT <answer> $V {$V} </answer> {} "
      "WHERE homesSrc homes.home.zip._ $V";
  if (i == 0) return q;
  const int k = (i - 1) % (2 * kXmlZips);
  return q + (k < kXmlZips ? " AND $V < '" : " AND $V <= '") +
         std::to_string(91001 + k % kXmlZips) + "'";
}

std::string RelScan(int zip, const std::string& label) {
  return "CONSTRUCT <" + label + "> $R {$R} </" + label +
         "> {} WHERE realty realty.homes.row $R AND $R zip._ $Z AND $Z = '" +
         std::to_string(zip) + "'";
}

std::string RelJoin(int zip) {
  const std::string z = std::to_string(zip);
  return "CONSTRUCT <pairs> <pair> $R $S {$S} </pair> {$R} </pairs> {} "
         "WHERE realty realty.homes.row $R AND $R zip._ $Z1 "
         "AND edu edu.schools.row $S AND $S zip._ $Z2 "
         "AND $Z1 = $Z2 AND $Z1 = '" + z + "' AND $Z2 = '" + z + "'";
}

/// Homes in one zip, wrapped in an element named `label` (non-factored:
/// the label is part of what the answer-view cache matches on).
std::string HomesInZip(int zip, const std::string& label) {
  return "CONSTRUCT <answer> <" + label + "> $H </" + label +
         "> {$H} </answer> {} WHERE homesSrc homes.home $H AND $H zip._ $V "
         "AND $V = '" + std::to_string(zip) + "'";
}

const char* kFullScan =
    "CONSTRUCT <rows> $R {$R} </rows> {} WHERE realty realty.homes.row $R";

// ---------------------------------------------------------------------------
// One set-up of a workload: sources, reference answers, servers, warm-up.

struct World {
  std::string workload;
  bool traced = false;
  double rate_per_s = 0;  ///< open-loop offered load (--rate)
  Meter exchange_meter;  ///< session-side wrapper exchanges (traced)
  Meter source_meter;    ///< inside the source wrapper (traced)
  TransportTally transports;

  std::unique_ptr<xml::Document> homes, schools;
  std::unique_ptr<rdb::Database> realty, edu;
  /// Source name -> materialized source document (oracle and doc rung).
  std::map<std::string, const xml::Document*> source_docs;
  std::vector<std::unique_ptr<xml::Document>> owned_docs;
  /// Pushed-down view URI -> materialized view (doc rung, traced only).
  std::map<std::string, std::unique_ptr<xml::Document>> view_docs;

  std::vector<Query> family;
  /// Family indices closed-loop clients cycle through: browse runs its one
  /// query; scan_churn runs one join per two scans, so each median falls
  /// inside one query's mode rather than between the two; zipf_views runs
  /// its 64 members in exact Zipf proportion, in an order the seed shuffles.
  std::vector<int> mix;

  // Backend mixd (scan_churn): declared before the front so it outlives it.
  std::unique_ptr<SessionEnvironment> backend_env;
  std::vector<std::unique_ptr<buffer::LxpWrapper>> exported;
  std::unique_ptr<MediatorService> backend;
  std::unique_ptr<net::tcp::TcpServer> backend_server;

  std::unique_ptr<SessionEnvironment> env;
  std::unique_ptr<MediatorService> service;
  std::unique_ptr<net::tcp::TcpServer> server;
  bool source_cache_on = false;

  std::atomic<int64_t> adhoc_counter{0};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> invalidations{0};

  ~World() {
    if (server) server->Stop();
    if (backend_server) backend_server->Stop();
  }

  std::function<std::unique_ptr<buffer::LxpWrapper>()> Metered(
      std::function<std::unique_ptr<buffer::LxpWrapper>()> make) {
    if (!traced) return make;
    return [this, make]() -> std::unique_ptr<buffer::LxpWrapper> {
      return std::make_unique<MeteredWrapper>(make(), &exchange_meter);
    };
  }
  Meter* SourceMeter() { return traced ? &source_meter : nullptr; }

  const xml::Document* ViewDoc(const std::string& uri) const {
    auto it = view_docs.find(uri);
    return it == view_docs.end() ? nullptr : it->second.get();
  }
};

// ---------------------------------------------------------------------------
// Stacks: how a client thread opens a session of a query.

class Stack {
 public:
  virtual ~Stack() = default;
  /// nullptr when the session could not be opened.
  virtual Navigable* Open(const std::string& text) = 0;
  /// False once the session reported an error (framed stacks only).
  virtual bool Healthy() const { return true; }
  /// The server-side session id (0 for bare stacks).
  virtual uint64_t session_id() const { return 0; }
  virtual bool Close() = 0;
};

class FramedStack : public Stack {
 public:
  explicit FramedStack(service::wire::FrameTransport* transport)
      : transport_(transport) {}
  Navigable* Open(const std::string& text) override {
    auto doc = client::FramedDocument::Open(transport_, text);
    if (!doc.ok()) return nullptr;
    doc_ = std::move(doc).ValueOrDie();
    return doc_.get();
  }
  bool Healthy() const override {
    return doc_ != nullptr && doc_->last_status().ok();
  }
  uint64_t session_id() const override {
    return doc_ != nullptr ? doc_->session_id() : 0;
  }
  bool Close() override {
    bool ok = doc_ != nullptr && doc_->Close().ok();
    doc_.reset();
    return ok;
  }

 private:
  service::wire::FrameTransport* transport_;
  std::unique_ptr<client::FramedDocument> doc_;
};

/// A bare LazyMediator, over BufferComponents over the environment's
/// wrappers (built exactly as Session::Build builds them, shared fragment
/// cache included) or over counted DocNavigables of the sources.
class BareStack : public Stack {
 public:
  BareStack(World* world, bool over_docs, NavStats* navs)
      : world_(world), over_docs_(over_docs), navs_(navs) {}
  ~BareStack() override { (void)Close(); }

  Navigable* Open(const std::string& text) override {
    auto plan = world_->service->plan_cache().GetOrCompile(text);
    if (!plan.ok()) return nullptr;
    plan_ = plan.value();
    std::map<std::string, std::string> overrides;
    CollectUriOverrides(*plan_, &overrides);
    mediator::SourceRegistry sources;
    if (over_docs_) {
      for (const auto& [name, doc] : world_->source_docs) {
        docs_.push_back(std::make_unique<CountedDoc>(doc, navs_));
        sources.Register(name, docs_.back().get());
      }
      for (const auto& [name, uri] : overrides) {
        sources.RegisterOpener(
            name,
            [world = world_, navs = navs_](
                const std::string& open_uri) -> std::unique_ptr<Navigable> {
              const xml::Document* doc = world->ViewDoc(open_uri);
              if (doc == nullptr) return nullptr;
              return std::make_unique<CountedDoc>(doc, navs);
            });
      }
    } else {
      buffer::SourceCache* cache = world_->source_cache_on
                                       ? &world_->service->source_cache()
                                       : nullptr;
      for (const auto& w : world_->env->wrappers()) {
        clocks_.push_back(std::make_unique<net::SimClock>());
        channels_.push_back(std::make_unique<net::Channel>(
            clocks_.back().get(), w.options.channel));
        wrappers_.push_back(w.factory());
        buffer::BufferComponent::Options opts;
        opts.channel = channels_.back().get();
        opts.clock = clocks_.back().get();
        opts.retry = w.options.retry;
        opts.max_in_flight = w.options.max_in_flight;
        auto it = overrides.find(w.name);
        const bool overridden = it != overrides.end();
        if (cache != nullptr && w.options.cache_fills && !overridden) {
          opts.source_cache = cache;
          opts.cache_source = w.name;
          opts.cache_generation = cache->Generation(w.name);
        }
        buffers_.push_back(std::make_unique<buffer::BufferComponent>(
            wrappers_.back().get(), overridden ? it->second : w.uri, opts));
        Navigable* nav = buffers_.back().get();
        sources.Register(w.name, nav);
        if (overridden) {
          sources.RegisterOpener(
              w.name, [nav](const std::string&) -> std::unique_ptr<Navigable> {
                return std::make_unique<Borrowed>(nav);
              });
        }
      }
    }
    auto med = mediator::LazyMediator::Build(*plan_, sources);
    if (!med.ok()) return nullptr;
    mediator_ = std::move(med).ValueOrDie();
    return mediator_->document();
  }

  bool Close() override {
    mediator_.reset();
    buffers_.clear();
    wrappers_.clear();
    channels_.clear();
    clocks_.clear();
    docs_.clear();
    plan_.reset();
    return true;
  }

 private:
  World* world_;
  bool over_docs_;
  NavStats* navs_;
  std::shared_ptr<const mediator::PlanNode> plan_;
  std::vector<std::unique_ptr<net::SimClock>> clocks_;
  std::vector<std::unique_ptr<net::Channel>> channels_;
  std::vector<std::unique_ptr<buffer::LxpWrapper>> wrappers_;
  std::vector<std::unique_ptr<buffer::BufferComponent>> buffers_;
  std::vector<std::unique_ptr<CountedDoc>> docs_;
  std::unique_ptr<mediator::LazyMediator> mediator_;
};

// ---------------------------------------------------------------------------
// Per-thread tallies and the session script.

struct Tally {
  std::vector<double> cmd_ns;
  std::vector<int64_t> cmd_at_ns;  ///< when each command of cmd_ns ended
  std::vector<double> open_ns;
  std::vector<double> first_ns;
  std::vector<double> session_ns;
  std::vector<int64_t> completed_at_ns;  ///< end of each completed session
  int64_t cmd_total_ns = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  // From the server-side session (framed stacks on the service).
  int64_t lxp_messages = 0;
  int64_t lxp_bytes = 0;
  int64_t fills = 0;
  int64_t readahead_issued = 0;
  int64_t readahead_hits = 0;
  int64_t readahead_fallbacks = 0;
  // Client transport (traced framed stacks).
  int64_t rtt_total_ns = 0;
  int64_t rtt_cmds = 0;
  int64_t frames = 0;
  int64_t frame_bytes = 0;
  std::string first_failure;

  void Merge(const Tally& o) {
    auto cat = [](auto* a, const auto& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&cmd_ns, o.cmd_ns);
    cat(&cmd_at_ns, o.cmd_at_ns);
    cat(&open_ns, o.open_ns);
    cat(&first_ns, o.first_ns);
    cat(&session_ns, o.session_ns);
    cat(&completed_at_ns, o.completed_at_ns);
    cmd_total_ns += o.cmd_total_ns;
    attempted += o.attempted;
    failed += o.failed;
    completed += o.completed;
    lxp_messages += o.lxp_messages;
    lxp_bytes += o.lxp_bytes;
    fills += o.fills;
    readahead_issued += o.readahead_issued;
    readahead_hits += o.readahead_hits;
    readahead_fallbacks += o.readahead_fallbacks;
    rtt_total_ns += o.rtt_total_ns;
    rtt_cmds += o.rtt_cmds;
    frames += o.frames;
    frame_bytes += o.frame_bytes;
    if (first_failure.empty()) first_failure = o.first_failure;
  }

  /// Room for `cmds` command samples, reserved but not touched, so the
  /// samples never reallocate and occupy exactly SampleBytes() of memory.
  void Reserve(size_t cmds) {
    cmd_ns.reserve(cmds);
    cmd_at_ns.reserve(cmds);
  }

  int64_t SampleBytes() const {
    const size_t n = cmd_ns.size() + cmd_at_ns.size() + open_ns.size() +
                     first_ns.size() + session_ns.size() +
                     completed_at_ns.size();
    return static_cast<int64_t>(n * sizeof(double));
  }
};

/// Runs one session's commands, timing each one and rendering the answer.
class ScriptRunner {
 public:
  ScriptRunner(Navigable* nav, Stack* stack, Tally* tally,
               TimedTransport* timed)
      : nav_(nav), stack_(stack), tally_(tally), timed_(timed) {}

  template <typename F>
  auto Cmd(F&& f) {
    const int64_t t0 = NowNs();
    auto v = f();
    const int64_t t1 = NowNs();
    const int64_t ns = t1 - t0;
    tally_->cmd_ns.push_back(static_cast<double>(ns));
    tally_->cmd_at_ns.push_back(t1);
    tally_->cmd_total_ns += ns;
    if (timed_ != nullptr) {
      tally_->rtt_total_ns += timed_->last_ns();
      ++tally_->rtt_cmds;
    }
    if (!stack_->Healthy()) healthy_ = false;
    return v;
  }

  void Walk(const NodeId& n, int depth) {
    Label label = Cmd([&] { return nav_->Fetch(n); });
    AppendLine(&out_, depth, label);
    std::optional<NodeId> c = Cmd([&] { return nav_->Down(n); });
    while (c.has_value() && healthy_) {
      Walk(*c, depth + 1);
      if (depth == 0 && first_ns_ == 0) first_ns_ = NowNs();
      const NodeId at = *c;
      c = Cmd([&] { return nav_->Right(at); });
    }
  }

  void Run(Script script) {
    NodeId root = Cmd([&] { return nav_->Root(); });
    switch (script) {
      case Script::kBrowse:
        Walk(root, 0);
        break;
      case Script::kFetch: {
        std::vector<SubtreeEntry> entries;
        Cmd([&] {
          nav_->FetchSubtree(root, -1, &entries);
          return 0;
        });
        first_ns_ = NowNs();
        RenderEntries(entries, 0, &out_);
        break;
      }
      case Script::kScan: {
        Label label = Cmd([&] { return nav_->Fetch(root); });
        AppendLine(&out_, 0, label);
        std::optional<NodeId> row = Cmd([&] { return nav_->Down(root); });
        std::vector<NodeId> page;
        if (row.has_value()) page.push_back(*row);
        while (!page.empty() && healthy_) {
          for (const NodeId& id : page) {
            std::vector<SubtreeEntry> entries;
            Cmd([&] {
              nav_->FetchSubtree(id, -1, &entries);
              return 0;
            });
            if (first_ns_ == 0) first_ns_ = NowNs();
            RenderEntries(entries, 1, &out_);
          }
          const NodeId last = page.back();
          page.clear();
          Cmd([&] {
            nav_->NextSiblings(last, 32, &page);
            return 0;
          });
        }
        break;
      }
    }
    if (first_ns_ == 0) first_ns_ = NowNs();
  }

  bool healthy() const { return healthy_; }
  int64_t first_ns() const { return first_ns_; }
  const std::string& rendered() const { return out_; }

 private:
  Navigable* nav_;
  Stack* stack_;
  Tally* tally_;
  TimedTransport* timed_;
  bool healthy_ = true;
  int64_t first_ns_ = 0;
  std::string out_;
};

/// One client thread's view of a stack.
struct Client {
  std::unique_ptr<net::tcp::TcpFrameTransport> tcp;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<Stack> stack;
  NavStats navs;
};

enum class Rung { kTcp, kTcpTraced, kInproc, kBuffer, kDoc };

const char* RungName(Rung r) {
  switch (r) {
    case Rung::kTcp: return "tcp_plain";
    case Rung::kTcpTraced: return "tcp";
    case Rung::kInproc: return "inproc";
    case Rung::kBuffer: return "buffer";
    case Rung::kDoc: return "doc";
  }
  return "?";
}

std::unique_ptr<Client> MakeClient(World* world, Rung rung) {
  auto c = std::make_unique<Client>();
  switch (rung) {
    case Rung::kTcp:
    case Rung::kTcpTraced: {
      net::tcp::TcpTransportOptions o;
      o.port = world->server->port();
      c->tcp = std::make_unique<net::tcp::TcpFrameTransport>(o);
      service::wire::FrameTransport* t = c->tcp.get();
      if (rung == Rung::kTcpTraced) {
        c->timed = std::make_unique<TimedTransport>(t);
        t = c->timed.get();
      }
      c->stack = std::make_unique<FramedStack>(t);
      break;
    }
    case Rung::kInproc:
      c->timed = std::make_unique<TimedTransport>(world->service.get());
      c->stack = std::make_unique<FramedStack>(c->timed.get());
      break;
    case Rung::kBuffer:
      c->stack = std::make_unique<BareStack>(world, false, &c->navs);
      break;
    case Rung::kDoc:
      c->stack = std::make_unique<BareStack>(world, true, &c->navs);
      break;
  }
  return c;
}

/// Opens, scripts, probes and closes one session of `q`. `start_ns` is when
/// the session was due (open loop) or began (closed loop).
void RunSession(World* world, Client* client, const Query& q, int64_t start_ns,
                Tally* tally) {
  ++tally->attempted;
  std::string text = q.text;
  std::string expected = q.expected;
  if (q.adhoc) {
    const std::string label =
        "hits" + std::to_string(world->adhoc_counter.fetch_add(1));
    text = ReplaceAll(text, kAdhocLabel, label);
    expected = ReplaceAll(expected, kAdhocLabel, label);
  }
  const int64_t t_open = NowNs();
  TimedTransport* timed = client->timed.get();
  const int64_t frames_before = timed ? timed->round_trips() : 0;
  const int64_t bytes_before = timed ? timed->bytes() : 0;
  Navigable* nav = client->stack->Open(text);
  const int64_t t_opened = NowNs();
  auto fail = [&](const std::string& why) {
    ++tally->failed;
    if (tally->first_failure.empty()) tally->first_failure = why;
  };
  if (nav == nullptr) {
    fail("open failed: " + text);
    (void)client->stack->Close();
    return;
  }
  tally->open_ns.push_back(static_cast<double>(t_opened - t_open));
  ScriptRunner runner(nav, client->stack.get(), tally, client->timed.get());
  runner.Run(q.script);

  // Per-session LXP channel accounting, read from the session registry
  // between the last command and Close (no command of this session is in
  // flight). The probe's own time is left out of the session time.
  int64_t probe_ns = 0;
  const uint64_t id = client->stack->session_id();
  if (id != 0) {
    const int64_t t0 = NowNs();
    std::shared_ptr<service::Session> s = world->service->registry().Find(id);
    if (s != nullptr) {
      s->RefreshSourceMetrics();
      const service::SessionMetrics& m = s->metrics();
      tally->lxp_messages += m.lxp.messages;
      tally->lxp_bytes += m.lxp.bytes;
      tally->fills += m.fills;
      tally->readahead_issued += m.readahead_issued;
      tally->readahead_hits += m.readahead_hits;
      tally->readahead_fallbacks += m.readahead_fallbacks;
    }
    probe_ns = NowNs() - t0;
  }
  const bool closed = client->stack->Close();
  const int64_t t_end = NowNs();
  if (timed != nullptr) {
    tally->frames += 2 * (timed->round_trips() - frames_before);
    tally->frame_bytes += timed->bytes() - bytes_before;
  }
  if (!runner.healthy()) {
    fail("error frame in session of: " + text);
  } else if (!closed) {
    fail("close failed: " + text);
  } else if (runner.rendered() != expected) {
    fail("answer mismatch for: " + text);
  } else {
    ++tally->completed;
    tally->completed_at_ns.push_back(t_end);
  }
  tally->first_ns.push_back(static_cast<double>(runner.first_ns() - start_ns));
  tally->session_ns.push_back(
      static_cast<double>(t_end - start_ns - probe_ns));

  if (world->workload == "scan_churn" &&
      world->completed.fetch_add(1) % kInvalidateEvery ==
          kInvalidateEvery - 1) {
    world->service->InvalidateSource("realty");
    world->invalidations.fetch_add(1);
  }
}

// ---------------------------------------------------------------------------
// Query streams.

/// zipf_views' open loop: per arrival, a Zipf-popular member of the family.
std::vector<int> ZipfStream(size_t n, int family_size, Rng* rng) {
  ZipfSampler zipf(family_size, kZipfExponent);
  std::vector<int> out(n);
  for (int& q : out) q = zipf.Sample(rng);
  return out;
}

/// The query index a closed-loop client runs as its k-th session.
int ClosedQuery(const World& world, int client, int64_t k) {
  const auto n = static_cast<int64_t>(world.mix.size());
  return world.mix[static_cast<size_t>((int64_t{client} * 7919 + k) % n)];
}

struct PhaseResult {
  Tally tally;
  LoadTimes load;
  NavStats navs;  ///< source navigations of the doc rung (Def. 2)
  /// Peak resident memory by the end of the load, less the load
  /// generator's own latency samples (which grow with throughput).
  double peak_rss_mb = 0;
};

/// Command samples reserved per client thread (virtual memory only).
constexpr size_t kReservedCmdSamples = size_t{1} << 22;

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Runs the workload's own load shape (a closed loop, or with --rate an
/// open loop for zipf_views) on `rung` for `duration_ns`.
PhaseResult RunPhase(World* world, Rung rung, int64_t duration_ns,
                     uint64_t seed, bool open_loop) {
  PhaseResult out;
  const int threads = open_loop ? kOpenLoopWorkers : kClosedClients;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  for (Tally& t : tallies) t.Reserve(kReservedCmdSamples);
  for (int i = 0; i < threads; ++i) clients.push_back(MakeClient(world, rung));
  if (open_loop) {
    Rng rng(seed ^ 0x6172726976616c73ull);
    std::vector<int64_t> arrivals =
        PoissonArrivals(world->rate_per_s, duration_ns, &rng);
    std::vector<int> queries = ZipfStream(
        arrivals.size(), static_cast<int>(world->family.size()), &rng);
    out.load =
        RunOpenLoop(arrivals, threads, [&](size_t i, int w, int64_t due_ns) {
          RunSession(world, clients[static_cast<size_t>(w)].get(),
                     world->family[static_cast<size_t>(queries[i])], due_ns,
                     &tallies[static_cast<size_t>(w)]);
        });
  } else {
    out.load = RunClosedLoop(threads, duration_ns, [&](int c, int64_t k) {
      RunSession(world, clients[static_cast<size_t>(c)].get(),
                 world->family[static_cast<size_t>(ClosedQuery(*world, c, k))],
                 NowNs(), &tallies[static_cast<size_t>(c)]);
    });
  }
  int64_t sample_bytes = 0;
  for (const Tally& t : tallies) sample_bytes += t.SampleBytes();
  out.peak_rss_mb =
      PeakRssMb() - static_cast<double>(sample_bytes) / (1024.0 * 1024.0);
  for (const Tally& t : tallies) out.tally.Merge(t);
  for (const auto& c : clients) out.navs += c->navs;
  return out;
}

// ---------------------------------------------------------------------------
// World construction.

service::SessionEnvironment::WrapperOptions RelationalOptions(
    const rdb::Database* db) {
  SessionEnvironment::WrapperOptions wo;
  wo.capability = wrappers::RelationalLxpWrapper(db).Capability();
  return wo;
}

bool StartServer(MediatorService* service, int loops,
                 std::unique_ptr<net::tcp::TcpServer>* out) {
  net::tcp::TcpServerOptions so;
  so.event_loops = loops;
  *out = std::make_unique<net::tcp::TcpServer>(service, so);
  return (*out)->Start().ok();
}

/// Runs every query of the family once on a fresh session (warm-up: plan,
/// fragment and answer-view caches, connections). Each session fetches its
/// whole answer at once: a browse walk would make set-up mostly thousands
/// of round trips from one thread, whose speed swings from run to run with
/// where the scheduler puts that thread.
bool WarmUp(World* world, std::string* error) {
  auto client = MakeClient(world, Rung::kTcp);
  Tally tally;
  for (Query q : world->family) {
    q.script = Script::kFetch;
    RunSession(world, client.get(), q, NowNs(), &tally);
  }
  if (tally.failed > 0) {
    *error = "warm-up: " + tally.first_failure;
    return false;
  }
  world->completed = 0;
  return true;
}

std::unique_ptr<World> BuildWorld(const std::string& workload, uint64_t seed,
                                  bool traced, std::string* error) {
  auto w = std::make_unique<World>();
  w->workload = workload;
  w->traced = traced;
  Rng rng(seed);
  w->homes = MakeXmlSource("homes", "home", "addr", kXmlRows, kXmlZips, &rng);
  w->schools =
      MakeXmlSource("schools", "school", "dir", kXmlRows, kXmlZips, &rng);
  w->source_docs["homesSrc"] = w->homes.get();
  w->source_docs["schoolsSrc"] = w->schools.get();
  const bool relational = workload != "browse";
  if (relational) {
    const int rows = workload == "scan_churn" ? kScanRows : kRelRows;
    w->realty = MakeTable("realty", "homes", "addr", rows, kRelZips, &rng);
    w->edu = MakeTable("edu", "schools", "dir", kRelRows, kRelZips, &rng);
    for (auto [name, db] : {std::pair{"realty", w->realty.get()},
                            std::pair{"edu", w->edu.get()}}) {
      w->owned_docs.push_back(MaterializeView(db, "db"));
      w->source_docs[name] = w->owned_docs.back().get();
    }
  }
  mediator::ReferenceSources ref;
  for (const auto& [name, doc] : w->source_docs) ref[name] = doc->root();

  // The query family, each with its oracle answer.
  auto add = [&](std::string text, Script script, bool adhoc = false,
                 bool rel = false) -> bool {
    Result<std::string> expected = ReferenceAnswer(text, ref);
    if (!expected.ok()) {
      *error = "reference: " + expected.status().ToString() + " for " + text;
      return false;
    }
    w->family.push_back(Query{std::move(text), std::move(expected).ValueOrDie(),
                              script, adhoc, rel});
    return true;
  };
  if (workload == "browse") {
    if (!add(kFig3, Script::kBrowse)) return nullptr;
  } else if (workload == "scan_churn") {
    if (!add(kFig3, Script::kScan) || !add(kFullScan, Script::kScan)) {
      return nullptr;
    }
  } else {
    // 64 members in popularity order. Kinds are interleaved so that every
    // popularity band mixes cheap (view-served) and costly members. The
    // ad-hoc members keep fresh compiles and answer-view misses in every
    // run: XML selections at ranks 2 and 5 (served by the fragment cache)
    // and pushed-down relational scans at ranks 7 and 11 (real LXP
    // exchanges, the fragment cache bypassed). The scans are the slowest
    // sessions, mostly modeled source latency, and carry ~4% of sessions.
    std::vector<std::pair<std::string, bool>> members;  // text, relational
    int fig3 = 0, zipv = 0, scan = 0, join = 0;
    for (int rank = 0; rank < 64; ++rank) {
      if (rank == 7 || rank == 11) {
        const int zip = 91000 + (rank * 7) % kRelZips;
        if (!add(RelScan(zip, kAdhocLabel), Script::kFetch, true, true)) {
          return nullptr;
        }
        continue;
      }
      if (rank == 2 || rank == 5) {
        if (!add(HomesInZip(91000 + rank % kXmlZips, kAdhocLabel),
                 Script::kFetch, true)) {
          return nullptr;
        }
        continue;
      }
      bool ok = true;
      switch (rank % 4) {
        case 0:
          ok = add(ZipView(zipv), Script::kFetch);
          ++zipv;
          break;
        case 1:
          ok = add(Fig3Narrowed(fig3), Script::kFetch);
          ++fig3;
          break;
        case 2:
          ok = add(RelScan(91000 + (scan * 5) % kRelZips, "hits"),
                   Script::kFetch, false, true);
          ++scan;
          break;
        default:
          ok = add(RelJoin(91000 + (join * 3) % kRelZips), Script::kFetch,
                   false, true);
          ++join;
          break;
      }
      if (!ok) return nullptr;
    }
  }

  if (workload == "scan_churn") {
    w->mix = {0, 1, 1};
  } else if (workload == "zipf_views") {
    w->mix = ZipfMix(static_cast<int>(w->family.size()), kZipfExponent, 4096,
                     &rng);
  } else {
    w->mix = {0};
  }

  // Servers.
  MediatorService::Options so;
  so.workers = kServiceWorkers;
  so.queue_capacity = 4096;
  so.plan_cache_entries = 256;
  w->env = std::make_unique<SessionEnvironment>();
  if (workload == "browse") {
    for (auto [name, uri, doc] :
         {std::tuple{"homesSrc", "homes.xml", w->homes.get()},
          std::tuple{"schoolsSrc", "schools.xml", w->schools.get()}}) {
      Meter* m = w->SourceMeter();
      w->env->RegisterWrapperFactory(
          name, w->Metered([doc, m]() -> std::unique_ptr<buffer::LxpWrapper> {
            return std::make_unique<ModeledSource>(
                std::make_unique<wrappers::XmlLxpWrapper>(doc), 0, m);
          }),
          uri);
    }
  } else if (workload == "zipf_views") {
    Meter* m = w->SourceMeter();
    for (auto [name, uri, doc] :
         {std::tuple{"homesSrc", "homes.xml", w->homes.get()},
          std::tuple{"schoolsSrc", "schools.xml", w->schools.get()}}) {
      w->env->RegisterWrapperFactory(
          name, w->Metered([doc, m]() -> std::unique_ptr<buffer::LxpWrapper> {
            return std::make_unique<ModeledSource>(
                std::make_unique<wrappers::XmlLxpWrapper>(doc),
                kZipfXmlLatencyNs, m);
          }),
          uri);
    }
    for (auto [name, db] : {std::pair{"realty", w->realty.get()},
                            std::pair{"edu", w->edu.get()}}) {
      w->env->RegisterWrapperFactory(
          name, w->Metered([db, m]() -> std::unique_ptr<buffer::LxpWrapper> {
            return std::make_unique<ModeledSource>(
                std::make_unique<wrappers::RelationalLxpWrapper>(db),
                kZipfDbLatencyNs, m);
          }),
          "db", RelationalOptions(db));
    }
    // The answer-view budget holds every recurring member; the ad-hoc
    // members' views cycle through the rest of it, so memory levels off
    // within seconds instead of growing with the sessions run. (At 16 MB
    // it filled mid-run, and throughput then fell by up to 2.5x in some
    // runs and not in others.)
    so.source_cache_bytes = int64_t{64} << 20;
    so.answer_view_cache_bytes = int64_t{2} << 20;
  } else {
    // scan_churn: a backend mixd exports the sources over TCP; the front
    // mixd reaches them through per-session remote wrappers.
    w->backend_env = std::make_unique<SessionEnvironment>();
    Meter* m = w->SourceMeter();
    w->exported.push_back(std::make_unique<ModeledSource>(
        std::make_unique<wrappers::XmlLxpWrapper>(w->homes.get()),
        kChurnSourceLatencyNs, m));
    w->backend_env->ExportWrapper("homes.xml", w->exported.back().get(), true);
    w->exported.push_back(std::make_unique<ModeledSource>(
        std::make_unique<wrappers::XmlLxpWrapper>(w->schools.get()),
        kChurnSourceLatencyNs, m));
    w->backend_env->ExportWrapper("schools.xml", w->exported.back().get(),
                                  true);
    w->exported.push_back(std::make_unique<ModeledSource>(
        std::make_unique<wrappers::RelationalLxpWrapper>(w->realty.get()),
        kChurnSourceLatencyNs, m));
    w->backend_env->ExportWrapper("db", w->exported.back().get(), true);
    MediatorService::Options bo;
    bo.workers = kBackendWorkers;
    bo.queue_capacity = 4096;
    w->backend = std::make_unique<MediatorService>(w->backend_env.get(), bo);
    if (!StartServer(w->backend.get(), kBackendEventLoops,
                     &w->backend_server)) {
      *error = "backend TcpServer failed to start";
      return nullptr;
    }
    const uint16_t port = w->backend_server->port();
    SessionEnvironment::WrapperOptions wo;
    wo.max_in_flight = kChurnReadahead;
    for (auto [name, uri] : {std::pair{"homesSrc", "homes.xml"},
                             std::pair{"schoolsSrc", "schools.xml"},
                             std::pair{"realty", "db"}}) {
      TransportTally* tally = &w->transports;
      w->env->RegisterWrapperFactory(
          name,
          w->Metered([port, u = std::string(uri),
                      tally]() -> std::unique_ptr<buffer::LxpWrapper> {
            return std::make_unique<RemoteSource>(port, u, tally);
          }),
          uri, wo);
    }
    // Fragment-cache budget: a quarter of what one pass over both queries
    // puts in an unbounded cache.
    MediatorService::Options probe_opts = so;
    probe_opts.source_cache_bytes = int64_t{1} << 30;
    {
      MediatorService probe(w->env.get(), probe_opts);
      for (const Query& q : w->family) {
        auto doc = client::FramedDocument::Open(&probe, q.text);
        if (!doc.ok()) {
          *error = "probe open failed";
          return nullptr;
        }
        xml::Document out;
        (void)xml::MaterializeInto(doc.value().get(), &out);
        (void)doc.value()->Close();
      }
      so.source_cache_bytes = std::max<int64_t>(probe.Metrics().cache_bytes / 4,
                                                1);
    }
  }
  w->source_cache_on = so.source_cache_bytes > 0;
  w->service = std::make_unique<MediatorService>(w->env.get(), so);
  if (!StartServer(w->service.get(), kServiceEventLoops, &w->server)) {
    *error = "TcpServer failed to start";
    return nullptr;
  }

  // The doc rung needs every pushed-down view materialized.
  if (traced) {
    for (const Query& q : w->family) {
      if (!q.relational) continue;
      auto plan = w->service->plan_cache().GetOrCompile(q.text);
      if (!plan.ok()) continue;
      std::map<std::string, std::string> overrides;
      CollectUriOverrides(*plan.value(), &overrides);
      for (const auto& [name, uri] : overrides) {
        if (w->view_docs.count(uri) > 0) continue;
        const rdb::Database* db =
            name == "realty" ? w->realty.get() : w->edu.get();
        w->view_docs[uri] = MaterializeView(db, uri);
      }
    }
  }
  if (!WarmUp(w.get(), error)) return nullptr;
  return w;
}

// ---------------------------------------------------------------------------
// Reporting.

std::string Num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// CPU time of the whole process (client and servers), steal time excluded.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Host-wide CPU ticks from /proc/stat: all, and those stolen from this VM
/// by its host (time its vCPUs were ready to run but not running).
struct CpuTicks {
  int64_t total = 0;
  int64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  in >> cpu;
  for (int i = 0; i < 8; ++i) {
    int64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A latency series in the "# env" line: sample count, p50/p90/p99 and the
/// highest percentile with ten samples beyond it, with its value (in the
/// series' own unit, ns).
std::string SeriesInfo(const char* name, const Summary& s) {
  return std::string("\"") + name + "\":{\"n\":" + std::to_string(s.n) +
         ",\"p50_ns\":" + Num(s.p50) + ",\"p90_ns\":" + Num(s.p90) +
         ",\"p99_ns\":" + Num(s.p99) +
         ",\"highest_supported_percentile\":" + Num(s.supported) +
         ",\"value_ns\":" + Num(s.at_supported) + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  double rate = 0;  ///< > 0: zipf_views as an open loop at this rate
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 == 0) return false;  // flags come in --name value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--rate") a->rate = std::strtod(v.c_str(), nullptr);
    else return false;
  }
  return (a->workload == "browse" || a->workload == "zipf_views" ||
          a->workload == "scan_churn") &&
         a->seconds > 0;
}

int64_t SumRejects(const service::ServiceMetricsSnapshot& s) {
  int64_t n = 0;
  for (const auto& [reason, count] : s.view_rejects) n += count;
  return n;
}

/// Service-wide counters summed over the workload's own (traced) slices.
struct ServiceDelta {
  double requests = 0, rejected = 0, expired = 0;
  double plan_hits = 0, plan_misses = 0;
  double view_hits = 0, view_misses = 0, view_rejects = 0;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double net_frames = 0, partial_reads = 0, backpressure = 0;

  void Add(const service::ServiceMetricsSnapshot& b,
           const service::ServiceMetricsSnapshot& a) {
    auto d = [&](int64_t service::ServiceMetricsSnapshot::*f) {
      return static_cast<double>(a.*f - b.*f);
    };
    using S = service::ServiceMetricsSnapshot;
    rejected += d(&S::requests_rejected);
    expired += d(&S::requests_expired);
    requests += d(&S::requests_ok) + d(&S::requests_error) +
                d(&S::requests_rejected) + d(&S::requests_expired);
    plan_hits += d(&S::plan_cache_hits);
    plan_misses += d(&S::plan_cache_misses);
    view_hits += d(&S::view_hits);
    view_misses += d(&S::view_misses);
    view_rejects += static_cast<double>(SumRejects(a) - SumRejects(b));
    cache_hits += d(&S::cache_hits);
    cache_misses += d(&S::cache_misses);
    cache_evictions += d(&S::cache_evictions);
    net_frames += static_cast<double>(a.net.frames_in - b.net.frames_in);
    partial_reads +=
        static_cast<double>(a.net.partial_reads - b.net.partial_reads);
    backpressure += static_cast<double>(a.net.backpressure_stalls -
                                        b.net.backpressure_stalls);
  }
};

void Append(Meter::Totals* into, Meter::Totals from) {
  into->ns.insert(into->ns.end(), from.ns.begin(), from.ns.end());
  into->blocking_ns += from.blocking_ns;
  into->holes += from.holes;
  into->bytes += from.bytes;
}

void Append(PhaseResult* into, const PhaseResult& from) {
  into->tally.Merge(from.tally);
  auto cat = [](std::vector<int64_t>* a, const std::vector<int64_t>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&into->load.late_ns, from.load.late_ns);
  cat(&into->load.latency_ns, from.load.latency_ns);
  into->load.wall_ns += from.load.wall_ns;
  into->navs += from.navs;
}

/// Rounds of the traced run. Each round runs a slice of the workload itself
/// (traced, on TCP) and then a slice of every ladder rung, so slow drift on
/// a shared host lands on all of them alike.
constexpr int kTraceRounds = 5;
constexpr Rung kRungs[] = {Rung::kTcp, Rung::kTcpTraced, Rung::kInproc,
                           Rung::kBuffer, Rung::kDoc};

void RunTraced(World* w, const Args& args, bool open_loop,
               std::vector<Metric>* metrics, std::string* info,
               Tally* checked) {
  const int64_t seconds_ns = int64_t{args.seconds} * 1'000'000'000;
  const int64_t workload_slice = seconds_ns * 2 / 5 / kTraceRounds;
  const int64_t rung_slice = seconds_ns * 3 / 25 / kTraceRounds;

  std::atomic<bool> running{true};
  std::atomic<bool> sampling{false};
  std::atomic<int64_t> queue_max{0};
  std::thread sampler([&] {
    while (running.load()) {
      if (sampling.load()) {
        const int64_t depth = w->service->Metrics().queue_depth;
        if (depth > queue_max.load()) queue_max.store(depth);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  PhaseResult a;
  std::map<Rung, PhaseResult> ladder;
  ServiceDelta delta;
  Meter::Totals exch, src, buffer_exch;
  int64_t invalidations = 0;
  for (int round = 0; round < kTraceRounds; ++round) {
    const auto before = w->service->Metrics();
    const int64_t inv_before = w->invalidations.load();
    (void)w->exchange_meter.Take();
    (void)w->source_meter.Take();
    sampling = true;
    PhaseResult p =
        RunPhase(w, Rung::kTcpTraced, workload_slice,
                 args.seed + static_cast<uint64_t>(round), open_loop);
    sampling = false;
    delta.Add(before, w->service->Metrics());
    invalidations += w->invalidations.load() - inv_before;
    Append(&exch, w->exchange_meter.Take());
    Append(&src, w->source_meter.Take());
    Append(&a, p);
    for (Rung r : kRungs) {
      (void)w->exchange_meter.Take();
      PhaseResult q = RunPhase(w, r, rung_slice,
                               args.seed + 1000 + static_cast<uint64_t>(round),
                               false);
      if (r == Rung::kBuffer) Append(&buffer_exch, w->exchange_meter.Take());
      Append(&ladder[r], q);
    }
  }
  running = false;
  sampler.join();

  auto mean_cmd_us = [](const Tally& t) {
    return Ratio(static_cast<double>(t.cmd_total_ns),
                 static_cast<double>(t.cmd_ns.size())) / 1e3;
  };
  const Tally& ta = a.tally;
  const double sessions_a = static_cast<double>(ta.attempted);
  const double e2e_us = mean_cmd_us(ta);
  const double t_plain = mean_cmd_us(ladder[Rung::kTcp].tally);
  const double t_tcp = mean_cmd_us(ladder[Rung::kTcpTraced].tally);
  const double t_in = mean_cmd_us(ladder[Rung::kInproc].tally);
  const double t_buf = mean_cmd_us(ladder[Rung::kBuffer].tally);
  const double t_doc = mean_cmd_us(ladder[Rung::kDoc].tally);
  const Tally& tt = ladder[Rung::kTcpTraced].tally;
  const double rtt_tcp = Ratio(static_cast<double>(tt.rtt_total_ns),
                               static_cast<double>(tt.rtt_cmds)) / 1e3;
  // Layer self times per command, from adjacent rungs. The codec runs on
  // both framed rungs, so it is taken out of the service's share once.
  const double codec = t_tcp - rtt_tcp;
  const double wrapper_us =
      Ratio(static_cast<double>(buffer_exch.blocking_ns),
            static_cast<double>(ladder[Rung::kBuffer].tally.cmd_ns.size())) /
      1e3;
  const double tcp_self = t_tcp - t_in;
  const double service_self = t_in - t_buf - codec;
  const double buffer_self = t_buf - t_doc - wrapper_us;
  const double layer_sum = codec + tcp_self + service_self + buffer_self +
                           wrapper_us + t_doc;

  // mediator.compile_us: CompileXmas + OptimizePlan per distinct query,
  // through a cold plan cache configured like the service's.
  std::vector<double> compile_ns;
  {
    MediatorService::Options co;
    co.workers = 1;
    MediatorService cold(w->env.get(), co);
    for (const Query& q : w->family) {
      const int64_t t0 = NowNs();
      (void)cold.plan_cache().GetOrCompile(q.text);
      compile_ns.push_back(static_cast<double>(NowNs() - t0));
    }
  }
  std::vector<double> late_ns;
  for (int64_t ns : a.load.late_ns) late_ns.push_back(static_cast<double>(ns));
  const Summary compile = Summarize(compile_ns);
  const Summary exch_s = Summarize(exch.ns);
  const Summary src_s = Summarize(src.ns);
  const Summary late = Summarize(late_ns);
  const Summary open_in = Summarize(ladder[Rung::kInproc].tally.open_ns);
  const double exchanges = static_cast<double>(exch.ns.size());

  auto add = [&](const char* name, double v, const char* unit) {
    metrics->push_back({name, v, unit});
  };
  add("client.codec_us_per_cmd", codec, "us");
  add("client.bytes_per_frame",
      Ratio(static_cast<double>(ta.frame_bytes),
            static_cast<double>(ta.frames)),
      "B");
  add("client.frames_per_session",
      Ratio(static_cast<double>(ta.frames), sessions_a), "count");
  add("tcp.rtt_us_per_cmd", rtt_tcp, "us");
  add("tcp.self_us_per_cmd", tcp_self, "us");
  add("tcp.partial_reads_per_frame",
      Ratio(delta.partial_reads, delta.net_frames), "ratio");
  add("tcp.backpressure_stalls", delta.backpressure, "count");
  add("tcp.source_ops_per_batch",
      Ratio(static_cast<double>(w->transports.async_ops.load()),
            static_cast<double>(w->transports.async_batches.load())),
      "count");
  add("service.self_us_per_cmd", service_self, "us");
  add("service.open_us", open_in.p50 / 1e3, "us");
  add("service.queue_depth_max", static_cast<double>(queue_max.load()),
      "count");
  add("service.rejected_ratio", Ratio(delta.rejected, delta.requests),
      "ratio");
  add("service.expired_ratio", Ratio(delta.expired, delta.requests), "ratio");
  add("mediator.compile_us", compile.p50 / 1e3, "us");
  add("mediator.plan_cache_hit_ratio",
      Ratio(delta.plan_hits, delta.plan_hits + delta.plan_misses), "ratio");
  add("mediator.view_hit_ratio",
      Ratio(delta.view_hits, delta.view_hits + delta.view_misses), "ratio");
  add("mediator.view_rejects", delta.view_rejects, "count");
  add("algebra.us_per_cmd", t_doc, "us");
  add("algebra.source_navs_per_cmd",
      Ratio(static_cast<double>(ladder[Rung::kDoc].navs.total()),
            static_cast<double>(ladder[Rung::kDoc].tally.cmd_ns.size())),
      "count");
  add("buffer.self_us_per_cmd", buffer_self, "us");
  add("buffer.fills_per_session",
      Ratio(static_cast<double>(ta.fills), sessions_a), "count");
  add("buffer.cache_hit_ratio",
      Ratio(delta.cache_hits, delta.cache_hits + delta.cache_misses), "ratio");
  add("buffer.cache_evictions_per_session",
      Ratio(delta.cache_evictions, sessions_a), "count");
  add("buffer.readahead_hit_ratio",
      Ratio(static_cast<double>(ta.readahead_hits),
            static_cast<double>(ta.readahead_issued)),
      "ratio");
  add("buffer.readahead_fallbacks_per_session",
      Ratio(static_cast<double>(ta.readahead_fallbacks), sessions_a), "count");
  add("lxp.exchange_us_p50", exch_s.p50 / 1e3, "us");
  add("lxp.source_us_p50", src_s.p50 / 1e3, "us");
  add("lxp.holes_per_exchange",
      Ratio(static_cast<double>(exch.holes), exchanges), "count");
  add("lxp.bytes_per_exchange",
      Ratio(static_cast<double>(exch.bytes), exchanges), "B");
  add("loadgen.late_p99_ms", late.p99 / 1e6, "ms");
  add("loadgen.failed_ratio", Ratio(static_cast<double>(ta.failed), sessions_a),
      "ratio");
  add("loadgen.invalidations", static_cast<double>(invalidations), "count");
  add("trace.overhead_ratio", Ratio(t_tcp, t_plain) - 1, "ratio");
  add("trace.reconcile_error", Ratio(std::abs(layer_sum - e2e_us), e2e_us),
      "ratio");

  checked->Merge(ta);
  *info += "\"rung_us_per_cmd\":{";
  for (Rung r : kRungs) {
    checked->Merge(ladder[r].tally);
    *info += std::string(r == Rung::kTcp ? "" : ",") + "\"" + RungName(r) +
             "\":" + Num(mean_cmd_us(ladder[r].tally));
  }
  *info += "},\"e2e_traced_us_per_cmd\":" + Num(e2e_us) +
           ",\"wrapper_us_per_cmd\":" + Num(wrapper_us) + "," +
           SeriesInfo("lxp_exchange", exch_s) + "," +
           SeriesInfo("lxp_source", src_s) + "," + SeriesInfo("late", late) +
           ",";
}

int Main(int argc, char** argv) {
  // 1 µs timer slack, inherited by every thread started from here on
  // (server workers included): sleeps in the open-loop generator and the
  // modeled sources end when they are due, not up to 50 µs later.
  (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  (void)mallopt(M_ARENA_MAX, kMallocArenas);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload browse|zipf_views|scan_churn "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const bool open_loop = args.workload == "zipf_views" && args.rate > 0;
  const int64_t seconds_ns = int64_t{args.seconds} * 1'000'000'000;

  // Set-up, repeated; the last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  int64_t setup_total_ns = 0;
  for (int r = 0; r < kSetupMaxRepeats &&
                  (r < kSetupRepeats || setup_total_ns < kSetupMinNs);
       ++r) {
    world.reset();
    std::string error;
    const int64_t t0 = NowNs();
    std::thread([&] {
      world = BuildWorld(args.workload, args.seed, args.trace, &error);
    }).join();
    if (world == nullptr) {
      std::fprintf(stderr, "bench_e2e: set-up failed: %s\n", error.c_str());
      return 1;
    }
    const int64_t took = NowNs() - t0;
    setup_total_ns += took;
    setup_s.push_back(static_cast<double>(took) / 1e9);
  }
  world->rate_per_s = args.rate;
  std::vector<double> setup_sorted = setup_s;
  const double setup_median = Percentile(&setup_sorted, 0.5);

  std::vector<Metric> metrics;
  std::string info;
  Tally checked;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_failure;

  auto e2e_metrics = [&](const PhaseResult& p) {
    const Tally& t = p.tally;
    const int64_t start = p.load.start_ns;
    const int64_t stop = start + seconds_ns;
    Summary cmd = Summarize(t.cmd_ns);
    Summary ses = Summarize(t.session_ns);
    Summary first = Summarize(t.first_ns);
    const double sessions = static_cast<double>(t.attempted);
    metrics.push_back({"setup_s", setup_median, "s"});
    metrics.push_back({"peak_rss_mb", p.peak_rss_mb, "MB"});
    metrics.push_back({"cmd_p50_us", cmd.p50 / 1e3, "us"});
    metrics.push_back({"commands_per_s",
                       WindowedRate(t.cmd_at_ns, start, stop, kWindowNs),
                       "1/s"});
    metrics.push_back({"first_answer_p50_ms", first.p50 / 1e6, "ms"});
    metrics.push_back({"session_p50_ms", ses.p50 / 1e6, "ms"});
    metrics.push_back({"lxp_messages_per_session",
                       Ratio(static_cast<double>(t.lxp_messages), sessions),
                       "count"});
    metrics.push_back({"lxp_bytes_per_session",
                       Ratio(static_cast<double>(t.lxp_bytes), sessions), "B"});
    info += SeriesInfo("cmd", cmd) + "," + SeriesInfo("session", ses) + "," +
            SeriesInfo("first_answer", first) + ",\"cmd_p99_us_windowed\":" +
            Num(WindowedPercentile(t.cmd_ns, t.cmd_at_ns, start, stop,
                                   kWindowNs, 0.99) /
                1e3) +
            ",\"sessions_per_s\":" +
            Num(WindowedRate(t.completed_at_ns, start, stop, kWindowNs)) + ",";
  };

  if (!args.trace) {
    const int64_t cpu0 = CpuNs();
    const CpuTicks ticks0 = ReadCpuTicks();
    PhaseResult p = RunPhase(world.get(), Rung::kTcp, seconds_ns, args.seed,
                             open_loop);
    const double cpu_ns = static_cast<double>(CpuNs() - cpu0);
    const CpuTicks ticks1 = ReadCpuTicks();
    e2e_metrics(p);
    const double cmds = static_cast<double>(p.tally.cmd_ns.size());
    const double sessions = static_cast<double>(p.tally.attempted);
    info += "\"cpu_us_per_cmd\":" + Num(Ratio(cpu_ns, cmds) / 1e3) +
            ",\"cpu_ms_per_session\":" + Num(Ratio(cpu_ns, sessions) / 1e6) +
            ",\"steal_share\":" +
            Num(Ratio(static_cast<double>(ticks1.steal - ticks0.steal),
                      static_cast<double>(ticks1.total - ticks0.total))) +
            ",";
    attempted = p.tally.attempted;
    failed = p.tally.failed;
    first_failure = p.tally.first_failure;
    info += "\"invalidations\":" + std::to_string(world->invalidations.load()) +
            ",";
  } else {
    RunTraced(world.get(), args, open_loop, &metrics, &info, &checked);
    attempted = checked.attempted;
    failed = checked.failed;
    first_failure = checked.first_failure;
  }

  const std::string build_type = BENCH_BUILD_TYPE;
  std::string env =
      "{" + info + "\"workload\":" + JsonString(args.workload) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + std::to_string(args.seconds) +
      ",\"trace\":" + (args.trace ? "1" : "0") +
      ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"cpu\":" + JsonString(CpuModel()) +
      ",\"build_type\":" + JsonString(build_type) +
      ",\"build_type_flag\":" +
      JsonString(build_type == "RelWithDebInfo" ? "ok"
                                                : "NOT RelWithDebInfo") +
      ",\"compiler\":" + JsonString(BENCH_COMPILER) +
      ",\"git_commit\":" + JsonString(BENCH_GIT_COMMIT) +
      ",\"service_workers\":" + std::to_string(kServiceWorkers) +
      ",\"service_event_loops\":" + std::to_string(kServiceEventLoops) +
      ",\"backend_workers\":" + std::to_string(kBackendWorkers) +
      ",\"backend_event_loops\":" + std::to_string(kBackendEventLoops) +
      ",\"malloc_arenas\":" + std::to_string(kMallocArenas) +
      ",\"offered_rate_per_s\":" + (open_loop ? Num(args.rate) : "null") +
      ",\"client_threads\":" +
      std::to_string(open_loop ? kOpenLoopWorkers : kClosedClients) +
      ",\"setup_s_runs\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    env += (i ? "," : "") + Num(setup_s[i]);
  }
  env += "]}";
  if (!first_failure.empty()) {
    std::fprintf(stderr, "bench_e2e: first failure: %s\n",
                 first_failure.c_str());
  }
  std::printf("# env %s\n", env.c_str());

  std::string out =
      "{\"correct\":" + std::string(failed == 0 ? "true" : "false") +
      ",\"attempted\":" + std::to_string(std::max<int64_t>(attempted, 1)) +
      ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + JsonString(metrics[i].name) +
           ":{\"value\":" + Num(metrics[i].value) +
           ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  world.reset();
  return 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) { return bench::Main(argc, argv); }
