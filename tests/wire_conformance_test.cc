// Wire conformance: the chunked d/r client and the exported wrappers'
// fallible face.
//
// FramedDocument answers f and r from the sibling chunks that d and r
// frames ship. These tests walk Fig. 3 and random-tree answers through it,
// in process and over TCP, in document order and by shuffled navigation
// from ids already seen, and compare every answer with the eager reference
// evaluator; a counting transport pins the round trips a walk costs. Peers'
// hole ids that an exported wrapper never issued must come back as
// kInvalidArgument error frames, with the server serving on.
//
// The TCP half runs client and reactor threads; CI runs this file under
// TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/framed_document.h"
#include "mediator/reference_eval.h"
#include "mediator/translate.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "rdb/database.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wire.h"
#include "test_util.h"
#include "wrappers/csv_wrapper.h"
#include "wrappers/relational_wrapper.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xmas/parser.h"
#include "xml/materialize.h"
#include "xml/random_tree.h"

namespace mix {
namespace {

using client::FramedDocument;
using service::MediatorService;
using service::SessionEnvironment;
using service::wire::Frame;
using service::wire::FrameTransport;
using service::wire::MsgType;

const char* kFig3 = R"(
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
)";

/// Counts round trips; can answer the next d/r frames with an error frame.
class CountingTransport : public FrameTransport {
 public:
  explicit CountingTransport(FrameTransport* inner) : inner_(inner) {}

  Result<std::string> RoundTrip(const std::string& request_bytes) override {
    ++frames;
    if (fail_chunks > 0) {
      Result<Frame> request = service::wire::DecodeFrame(request_bytes);
      if (request.ok() && (request.value().type == MsgType::kDown ||
                           request.value().type == MsgType::kRight)) {
        --fail_chunks;
        return service::wire::EncodeFrame(
            Frame::Error(Status::Unavailable("injected chunk failure")));
      }
    }
    return inner_->RoundTrip(request_bytes);
  }

  int64_t frames = 0;
  int fail_chunks = 0;

 private:
  FrameTransport* inner_;
};

/// One answer to serve: its sources, its query, and the reference answer.
struct Case {
  std::string name;
  std::string query;
  std::map<std::string, std::unique_ptr<xml::Document>> sources;
  std::unique_ptr<xml::Document> scratch;
  const xml::Node* reference = nullptr;
};

std::unique_ptr<Case> MakeCase(
    std::string name, std::string query,
    std::map<std::string, std::unique_ptr<xml::Document>> sources) {
  auto c = std::make_unique<Case>();
  c->name = std::move(name);
  c->query = std::move(query);
  c->sources = std::move(sources);
  auto parsed = xmas::ParseQuery(c->query);
  MIX_CHECK(parsed.ok());
  auto plan = mediator::TranslateQuery(parsed.value());
  MIX_CHECK(plan.ok());
  mediator::ReferenceSources ref;
  for (const auto& [src, doc] : c->sources) ref[src] = doc->root();
  c->scratch = std::make_unique<xml::Document>();
  auto answer = mediator::EvaluateReference(*plan.value(), ref,
                                            c->scratch.get());
  MIX_CHECK(answer.ok());
  c->reference = answer.value();
  return c;
}

std::vector<std::unique_ptr<Case>> Cases() {
  std::vector<std::unique_ptr<Case>> cases;
  auto fig3 = [](int homes, int schools, int zips) {
    std::map<std::string, std::unique_ptr<xml::Document>> s;
    s["homesSrc"] = xml::MakeHomesDoc(homes, zips);
    s["schoolsSrc"] = xml::MakeSchoolsDoc(schools, zips);
    return s;
  };
  cases.push_back(MakeCase("fig3_small", kFig3, fig3(3, 3, 2)));
  // 130 med_homes: slow start runs up to its cap (2 + 4 + ... + 64 < 130).
  cases.push_back(MakeCase("fig3_wide", kFig3, fig3(130, 4, 1)));
  const char* queries[] = {
      "CONSTRUCT <out> $X {$X} </out> {} WHERE src _._ $X",
      "CONSTRUCT <out> <g> $X $Y {$Y} </g> {$X} </out> {} "
      "WHERE src _ $X AND $X _ $Y",
      "CONSTRUCT <out> $X {$X} </out> {} WHERE src _*.a1 $X",
  };
  for (uint64_t seed : {1, 2, 3, 5, 8}) {
    for (size_t q = 0; q < std::size(queries); ++q) {
      xml::RandomTreeOptions options;
      options.seed = seed;
      options.max_depth = 4;
      options.max_fanout = 6;
      options.label_alphabet = 3;
      std::map<std::string, std::unique_ptr<xml::Document>> s;
      s["src"] = xml::RandomTree(options);
      cases.push_back(MakeCase(
          "random_" + std::to_string(seed) + "_q" + std::to_string(q),
          queries[q], std::move(s)));
    }
  }
  return cases;
}

/// A mixd over a case's sources, reachable in process or over TCP.
class Server {
 public:
  Server(const Case& c, bool tcp) {
    for (const auto& [name, doc] : c.sources) {
      const xml::Document* d = doc.get();
      env_.RegisterWrapperFactory(
          name, [d] { return std::make_unique<wrappers::XmlLxpWrapper>(d); },
          name + ".xml");
    }
    service_ = std::make_unique<MediatorService>(&env_,
                                                 MediatorService::Options());
    if (tcp) {
      server_ = std::make_unique<net::tcp::TcpServer>(
          service_.get(), net::tcp::TcpServerOptions());
      MIX_CHECK(server_->Start().ok());
      net::tcp::TcpTransportOptions options;
      options.port = server_->port();
      tcp_ = std::make_unique<net::tcp::TcpFrameTransport>(options);
    }
  }

  FrameTransport* transport() {
    return tcp_ != nullptr ? static_cast<FrameTransport*>(tcp_.get())
                           : service_.get();
  }

 private:
  SessionEnvironment env_;
  std::unique_ptr<MediatorService> service_;
  std::unique_ptr<net::tcp::TcpServer> server_;
  std::unique_ptr<net::tcp::TcpFrameTransport> tcp_;
};

/// Frames a document-order walk of `n` costs below the root's f: one d per
/// node, and one continuation r per chunk after the first of each sibling
/// list (chunks of 2, 4, 8, ... up to the cap; the last chunk tells the
/// list ended).
int64_t ExpectedWalkFrames(const xml::Node* n) {
  int64_t frames = 1;  // the d on n
  const int64_t len = static_cast<int64_t>(n->children.size());
  int64_t shipped = std::min(FramedDocument::kFirstChunk, len);
  int64_t chunk = FramedDocument::kFirstChunk;
  while (shipped < len) {
    chunk = std::min(2 * chunk, FramedDocument::kMaxChunk);
    shipped += chunk;
    ++frames;
  }
  for (const xml::Node* c : n->children) frames += ExpectedWalkFrames(c);
  return frames;
}

/// What a walk saw of one node.
struct Seen {
  Label label;
  std::optional<NodeId> down;
  std::optional<NodeId> right;
};

void Record(FramedDocument* doc, const NodeId& p,
            std::unordered_map<NodeId, Seen, NodeIdHash>* seen) {
  Seen& s = (*seen)[p];
  s.label = doc->Fetch(p);
  s.down = doc->Down(p);
  for (std::optional<NodeId> c = s.down; c.has_value();) {
    Record(doc, *c, seen);
    std::optional<NodeId> next = doc->Right(*c);
    (*seen)[*c].right = next;
    c = next;
  }
}

TEST(ChunkedClientTest, DocumentOrderWalkMatchesReferenceInFewFrames) {
  for (const auto& c : Cases()) {
    for (bool tcp : {false, true}) {
      SCOPED_TRACE(c->name + (tcp ? " tcp" : " inproc"));
      Server server(*c, tcp);
      CountingTransport counting(server.transport());
      auto doc = FramedDocument::Open(&counting, c->query).ValueOrDie();
      xml::Document out;
      EXPECT_EQ(xml::ToTerm(xml::MaterializeIntoNodeAtATime(doc.get(), &out)),
                xml::ToTerm(c->reference));
      EXPECT_TRUE(doc->last_status().ok()) << doc->last_status().ToString();
      // Open, root and the root's f (no chunk ships the root's label).
      EXPECT_EQ(counting.frames, 3 + ExpectedWalkFrames(c->reference));
      // One frame per f, d and r would be open, root, and 3 per node less
      // the root's r.
      EXPECT_LT(counting.frames, 1 + 3 * xml::SubtreeSize(c->reference));
    }
  }
}

TEST(ChunkedClientTest, ShuffledNavigationFromSeenIdsAgrees) {
  for (const auto& c : Cases()) {
    for (bool tcp : {false, true}) {
      SCOPED_TRACE(c->name + (tcp ? " tcp" : " inproc"));
      Server server(*c, tcp);
      CountingTransport counting(server.transport());
      auto doc = FramedDocument::Open(&counting, c->query).ValueOrDie();
      std::unordered_map<NodeId, Seen, NodeIdHash> seen;
      Record(doc.get(), doc->Root(), &seen);
      xml::Document out;
      ASSERT_EQ(xml::ToTerm(xml::MaterializeIntoNodeAtATime(doc.get(), &out)),
                xml::ToTerm(c->reference));

      // Every seen id twice per command, in a seeded shuffle: the second
      // f or r of a node finds its entry used and asks the server.
      struct Op {
        NodeId id;
        int cmd;  // 0 = f, 1 = d, 2 = r
      };
      std::vector<Op> ops;
      for (const auto& [id, s] : seen) {
        for (int cmd = 0; cmd < 3; ++cmd) {
          ops.push_back({id, cmd});
          ops.push_back({id, cmd});
        }
      }
      std::mt19937 rng(7);
      std::shuffle(ops.begin(), ops.end(), rng);
      for (const Op& op : ops) {
        const Seen& s = seen.at(op.id);
        switch (op.cmd) {
          case 0:
            EXPECT_EQ(doc->Fetch(op.id), s.label);
            break;
          case 1:
            EXPECT_EQ(doc->Down(op.id), s.down);
            break;
          default:
            // The root has no recorded r; it has no right sibling.
            EXPECT_EQ(doc->Right(op.id), s.right);
            break;
        }
      }
      EXPECT_TRUE(doc->last_status().ok()) << doc->last_status().ToString();
    }
  }
}

TEST(ChunkedClientTest, ErrorFrameOnAChunkCachesNothingAndTheRetryAsksAgain) {
  auto c = MakeCase("fig3_wide", kFig3, [] {
    std::map<std::string, std::unique_ptr<xml::Document>> s;
    s["homesSrc"] = xml::MakeHomesDoc(40, 2);
    s["schoolsSrc"] = xml::MakeSchoolsDoc(40, 2);
    return s;
  }());
  ASSERT_GT(c->reference->children.size(), 2u);
  Server server(*c, /*tcp=*/false);
  CountingTransport counting(server.transport());
  auto doc = FramedDocument::Open(&counting, c->query).ValueOrDie();
  const NodeId root = doc->Root();

  // A failed d ships nothing: the retry is a frame of its own.
  counting.fail_chunks = 1;
  int64_t before = counting.frames;
  EXPECT_FALSE(doc->Down(root).has_value());
  EXPECT_EQ(doc->last_status().code(), Status::Code::kUnavailable);
  doc->clear_last_status();
  std::optional<NodeId> first = doc->Down(root);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(counting.frames, before + 2);

  // The chunk of 2 serves f and r of its nodes without a frame.
  before = counting.frames;
  EXPECT_EQ(doc->Fetch(*first), "med_home");
  std::optional<NodeId> second = doc->Right(*first);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(doc->Fetch(*second), "med_home");
  EXPECT_EQ(counting.frames, before);

  // A failed continuation caches nothing and keeps the link: the retry asks
  // again, and the chunk it gets serves the next r locally.
  counting.fail_chunks = 1;
  EXPECT_FALSE(doc->Right(*second).has_value());
  EXPECT_FALSE(doc->last_status().ok());
  doc->clear_last_status();
  EXPECT_EQ(counting.frames, before + 1);
  std::optional<NodeId> third = doc->Right(*second);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(counting.frames, before + 2);
  std::optional<NodeId> fourth = doc->Right(*third);
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(counting.frames, before + 2);
  EXPECT_TRUE(doc->last_status().ok());

  // Walking on from the failures still renders the reference answer.
  xml::Document out;
  EXPECT_EQ(xml::ToTerm(xml::MaterializeIntoNodeAtATime(doc.get(), &out)),
            xml::ToTerm(c->reference));
}

// --------------------------------------------------------------------------
// Exported wrappers: hole ids they never issued.
// --------------------------------------------------------------------------

Frame FillRequest(const std::string& uri, const std::string& hole) {
  Frame f;
  f.type = MsgType::kLxpFillMany;
  f.text = uri;
  f.strings = {hole};
  f.number = -1;
  f.number2 = -1;
  return f;
}

TEST(ExportedWrapperTest, HoleIdsNeverIssuedGetErrorFramesAndServingGoesOn) {
  auto homes = xml::MakeHomesDoc(5, 2);
  wrappers::XmlLxpWrapper xml_wrapper(homes.get());
  auto csv = wrappers::ParseCsv("a,b\n1,2\n3,4\n").ValueOrDie();
  wrappers::CsvLxpWrapper csv_wrapper(&csv);
  rdb::Database db("realty");
  rdb::Table* table =
      db.CreateTable("homes", rdb::Schema({{"zip", rdb::Type::kInt}}))
          .ValueOrDie();
  ASSERT_TRUE(table->Insert({rdb::Value(int64_t{91220})}).ok());
  wrappers::RelationalLxpWrapper rel_wrapper(&db);

  SessionEnvironment env;
  env.ExportWrapper("homes.xml", &xml_wrapper);
  env.ExportWrapper("items.csv", &csv_wrapper);
  env.ExportWrapper("db", &rel_wrapper);
  MediatorService service(&env, MediatorService::Options());
  net::tcp::TcpServer server(&service, net::tcp::TcpServerOptions());
  ASSERT_TRUE(server.Start().ok());
  net::tcp::TcpTransportOptions options;
  options.port = server.port();
  net::tcp::TcpFrameTransport tcp(options);

  const std::map<std::string, std::vector<std::string>> bogus = {
      {"homes.xml",
       {"", "garbage", "x:", "x:1", "x:1:0", "x:999999:0:1", "x:0:0:99",
        "x:-1:0:1", "x:0:2:1", "x:0:0:1junk", "x:0:+0:1",
        "x:99999999999999999999:0:1", "c:0", "dbroot"}},
      {"items.csv", {"", "c:", "c:-1", "c:3", "c:999999", "c:abc", "c:1x",
                     "x:0:0:1", "c:root2"}},
      {"db",
       {"", "dbroot2", "t:", "t:nosuch:0", "t:homes:-1", "t:homes:2",
        "t:homes:abc", "q:0:root", "q:0:0", "q:x:1", "q:", "q:0", "zz"}},
  };
  const std::map<std::string, std::string> valid = {
      {"homes.xml", "xroot"}, {"items.csv", "c:root"}, {"db", "dbroot"}};

  for (FrameTransport* transport :
       {static_cast<FrameTransport*>(&service),
        static_cast<FrameTransport*>(&tcp)}) {
    for (const auto& [uri, holes] : bogus) {
      for (const std::string& hole : holes) {
        SCOPED_TRACE(uri + " '" + hole + "'");
        Result<Frame> resp =
            service::wire::Call(transport, FillRequest(uri, hole));
        ASSERT_FALSE(resp.ok());
        EXPECT_EQ(resp.status().code(), Status::Code::kInvalidArgument)
            << resp.status().ToString();
        // The server keeps serving: a real fill still answers.
        Result<Frame> good =
            service::wire::Call(transport, FillRequest(uri, valid.at(uri)));
        ASSERT_TRUE(good.ok()) << good.status().ToString();
        EXPECT_EQ(good.value().type, MsgType::kLxpFills);
        EXPECT_FALSE(good.value().hole_fills.empty());
      }
    }
  }
}

}  // namespace
}  // namespace mix
