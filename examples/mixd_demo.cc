// mixd demo: the MIX mediator as a concurrent multi-session server.
//
// Starts a MediatorService over the paper's homes/schools sources, opens
// several client sessions against it (each session gets its own
// demand-paged BufferComponents), browses one session through the DOM-style
// client library — every command crossing the framed wire protocol — and
// prints the service metrics snapshot at the end.
//
// Usage: mixd_demo [--transport={sim,tcp}]
//   sim (default): clients call the service's in-process FrameTransport.
//   tcp: an epoll TcpServer hosts the same service on a loopback port and
//        every client dialogue crosses a real socket — same frames, same
//        answers, plus the listener/connection metrics block at the end.
#include <cstdio>
#include <cstring>

#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/framed_document.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "service/service.h"
#include "service/wire.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/materialize.h"
#include "xml/parser.h"

namespace {

/// Non-owning FrameTransport view of the in-process service, so sim and tcp
/// clients can hold transports with the same ownership shape.
class InProcessTransport : public mix::service::wire::FrameTransport {
 public:
  explicit InProcessTransport(mix::service::MediatorService* service)
      : service_(service) {}
  mix::Result<std::string> RoundTrip(const std::string& request) override {
    return service_->RoundTrip(request);
  }

 private:
  mix::service::MediatorService* service_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mix;

  bool use_tcp = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--transport=tcp") == 0) {
      use_tcp = true;
    } else if (std::strcmp(argv[i], "--transport=sim") == 0) {
      use_tcp = false;
    } else {
      std::fprintf(stderr, "usage: %s [--transport={sim,tcp}]\n", argv[0]);
      return 1;
    }
  }

  // 1. The Fig. 1 sources, served through LXP wrappers: every session the
  // server opens gets its own wrapper instance and buffer.
  auto homes = xml::ParseTerm(
                   "homes[home[addr[La Jolla],zip[91220]],"
                   "home[addr[El Cajon],zip[91223]],"
                   "home[addr[Nowhere],zip[99999]]]")
                   .ValueOrDie();
  auto schools = xml::ParseTerm(
                     "schools[school[dir[Smith],zip[91220]],"
                     "school[dir[Bar],zip[91220]],"
                     "school[dir[Hart],zip[91223]]]")
                     .ValueOrDie();

  service::SessionEnvironment env;
  env.RegisterWrapperFactory(
      "homesSrc",
      [&homes] { return std::make_unique<wrappers::XmlLxpWrapper>(homes.get()); },
      "homes.xml");
  env.RegisterWrapperFactory(
      "schoolsSrc",
      [&schools] {
        return std::make_unique<wrappers::XmlLxpWrapper>(schools.get());
      },
      "schools.xml");

  // 2. Start the service: 4 workers, bounded admission queue, 30s idle TTL,
  // and both cross-session caches on — the shared source-fragment cache
  // (DESIGN.md §4) and the answer-view cache, so the later sessions below
  // are served warm.
  service::MediatorService::Options options;
  options.workers = 4;
  options.queue_capacity = 256;
  options.session_idle_ttl_ns = int64_t{30} * 1'000'000'000;
  options.source_cache_bytes = int64_t{1} << 20;
  options.answer_view_cache_bytes = int64_t{1} << 20;
  service::MediatorService server(&env, options);

  // With --transport=tcp the same service goes behind a real socket.
  // (Declared after `server` on purpose: the reactor must shut down before
  // the service it dispatches into.)
  std::unique_ptr<net::tcp::TcpServer> tcp_server;
  if (use_tcp) {
    tcp_server =
        std::make_unique<net::tcp::TcpServer>(&server, net::tcp::TcpServerOptions{});
    Status started = tcp_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "TcpServer: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("mixd: tcp transport on 127.0.0.1:%u\n", tcp_server->port());
  } else {
    std::printf("mixd: in-process (sim) transport\n");
  }
  auto new_transport =
      [&]() -> std::unique_ptr<service::wire::FrameTransport> {
    if (!use_tcp) return std::make_unique<InProcessTransport>(&server);
    net::tcp::TcpTransportOptions copts;
    copts.port = tcp_server->port();
    return std::make_unique<net::tcp::TcpFrameTransport>(copts);
  };

  // 3. The Fig. 3 query: homes joined with schools on zip.
  const char* query = R"(
    CONSTRUCT <answer>
      <med_home> $H $S {$S} </med_home> {$H}
    </answer> {}
    WHERE homesSrc homes.home $H AND $H zip._ $V1
      AND schoolsSrc schools.school $S AND $S zip._ $V2
      AND $V1 = $V2
  )";

  // 4. A few concurrent clients, each with its own session (and, over tcp,
  // its own connection).
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&new_transport, query, c] {
      auto transport = new_transport();
      auto doc =
          client::FramedDocument::Open(transport.get(), query).ValueOrDie();
      client::VirtualXmlDocument vdoc(doc.get());
      int n = static_cast<int>(vdoc.Root().Children().size());
      std::printf("client %d: session %llu sees %d med_home elements\n", c,
                  static_cast<unsigned long long>(doc->session_id()), n);
      (void)doc->Close();
    });
  }
  for (auto& t : clients) t.join();

  // 5. One more session, browsed in detail — XmlElement code cannot tell
  // this framed session from an in-process mediator (or a socket).
  auto transport = new_transport();
  auto doc = client::FramedDocument::Open(transport.get(), query).ValueOrDie();
  client::VirtualXmlDocument vdoc(doc.get());
  client::XmlElement answer = vdoc.Root();
  std::printf("--- browsing <%s> over the wire ---\n", answer.Name().c_str());
  for (client::XmlElement mh = answer.FirstChild(); !mh.IsNull();
       mh = mh.NextSibling()) {
    client::XmlElement home = mh.Child("home");
    std::printf("  med_home: %s (zip %s), schools:", home.Child("addr").Text().c_str(),
                home.Child("zip").Text().c_str());
    for (client::XmlElement s = mh.FirstChild().SelectSibling("school");
         !s.IsNull(); s = s.SelectSibling("school")) {
      std::printf(" %s", s.Child("dir").Text().c_str());
    }
    std::printf("\n");
  }
  (void)doc->Close();

  // 6. Donate and reuse an answer view: one session materializes the full
  // answer (publishing its navigation-complete export), and the next open
  // of the same query is served from the snapshot with zero wrapper work.
  {
    auto donor_transport = new_transport();
    auto donor =
        client::FramedDocument::Open(donor_transport.get(), query).ValueOrDie();
    xml::Document full;
    (void)xml::MaterializeInto(donor.get(), &full);
    (void)donor->Close();
    auto warm_transport = new_transport();
    auto warm =
        client::FramedDocument::Open(warm_transport.get(), query).ValueOrDie();
    client::VirtualXmlDocument warm_vdoc(warm.get());
    std::printf("view-served session %llu sees %d med_home elements\n",
                static_cast<unsigned long long>(warm->session_id()),
                static_cast<int>(warm_vdoc.Root().Children().size()));
    (void)warm->Close();
  }

  // 7. Service-wide metrics, fetched through the wire like any command —
  // over tcp the snapshot's net{...} block is the live listener counters.
  auto metrics_transport = new_transport();
  service::wire::Frame req;
  req.type = service::wire::MsgType::kMetrics;
  auto resp = service::wire::Call(metrics_transport.get(), req).ValueOrDie();
  std::printf("--- mixd metrics ---\n%s", resp.text.c_str());

  // 8. Over tcp: drain the listener and print its final per-connection
  // accounting (every client above was one accept).
  if (tcp_server) {
    tcp_server->Stop();
    std::printf("--- tcp listener ---\nnet{%s}\n",
                tcp_server->stats().ToString().c_str());
  }
  return 0;
}
