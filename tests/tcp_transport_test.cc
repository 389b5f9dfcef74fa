// End-to-end tests for the real TCP transport: loopback parity with the
// in-process service (byte for byte), incremental frame reassembly, corrupt
// header/payload handling, slow-reader backpressure, graceful shutdown
// drain, inline commands handing the loop to its standby, client deadlines
// on a stalled server, and retry-driven reconnect.
//
// The whole file runs under TSan in CI — it exercises every cross-thread
// edge of the reactor (worker completions racing loop closes, pipelined
// out-of-order completion, loop hand-overs mid-command, Stop() against
// in-flight commands).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/framed_document.h"
#include "net/fault.h"
#include "net/tcp/socket_util.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wire.h"
#include "test_util.h"
#include "wrappers/xml_lxp_wrapper.h"

namespace mix::net::tcp {
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

/// Shared state of gated SlowLxpWrappers: how many fills have started, and
/// whether fills are held.
struct Gate {
  std::atomic<int> entered{0};
  std::atomic<bool> hold{true};
};

/// LxpWrapper decorator whose fills dawdle — a "distant source" that keeps
/// a command in flight long enough for Stop() to race it. With a gate, a
/// fill keeps sleeping in `delay` steps while the gate holds it.
class SlowLxpWrapper : public buffer::LxpWrapper {
 public:
  SlowLxpWrapper(const xml::Document* doc, std::chrono::milliseconds delay,
                 Gate* gate = nullptr)
      : inner_(doc), delay_(delay), gate_(gate) {}

  std::string GetRoot(const std::string& uri) override {
    return inner_.GetRoot(uri);
  }
  buffer::FragmentList Fill(const std::string& hole_id) override {
    Dawdle();
    return inner_.Fill(hole_id);
  }
  buffer::HoleFillList FillMany(const std::vector<std::string>& holes,
                                const buffer::FillBudget& budget) override {
    Dawdle();
    return inner_.FillMany(holes, budget);
  }

 private:
  void Dawdle() {
    if (gate_ != nullptr) gate_->entered.fetch_add(1);
    do {
      std::this_thread::sleep_for(delay_);
    } while (gate_ != nullptr && gate_->hold.load());
  }

  wrappers::XmlLxpWrapper inner_;
  std::chrono::milliseconds delay_;
  Gate* gate_;
};

/// Session environment with the homes/schools sources of Fig. 3.
class TcpFixture {
 public:
  explicit TcpFixture(std::chrono::milliseconds source_delay =
                          std::chrono::milliseconds(0))
      : homes_(testing::Doc(kHomes)), schools_(testing::Doc(kSchools)) {
    if (source_delay.count() == 0) {
      env_.RegisterWrapperFactory(
          "homesSrc",
          [this] {
            return std::make_unique<wrappers::XmlLxpWrapper>(homes_.get());
          },
          "homes.xml");
      env_.RegisterWrapperFactory(
          "schoolsSrc",
          [this] {
            return std::make_unique<wrappers::XmlLxpWrapper>(schools_.get());
          },
          "schools.xml");
    } else {
      env_.RegisterWrapperFactory(
          "homesSrc",
          [this, source_delay] {
            return std::make_unique<SlowLxpWrapper>(homes_.get(), source_delay);
          },
          "homes.xml");
      env_.RegisterWrapperFactory(
          "schoolsSrc",
          [this, source_delay] {
            return std::make_unique<SlowLxpWrapper>(schools_.get(),
                                                    source_delay);
          },
          "schools.xml");
    }
  }

  SessionEnvironment& env() { return env_; }

 private:
  std::unique_ptr<xml::Document> homes_;
  std::unique_ptr<xml::Document> schools_;
  SessionEnvironment env_;
};

std::string MetricsRequest() {
  Frame f;
  f.type = MsgType::kMetrics;
  return service::wire::EncodeFrame(f);
}

/// Spin-waits (up to `timeout`) for a cross-thread condition.
template <typename Pred>
bool WaitUntil(Pred pred, std::chrono::milliseconds timeout =
                              std::chrono::milliseconds(5000)) {
  auto give_up = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Raw (frame-agnostic) socket client for the byte-level tests: garbage
/// injection, 1-byte trickles, deliberate non-reading.
class RawClient {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF *before* connecting (window scaling is
  /// negotiated at handshake), which is what makes the slow-reader test
  /// fill the pipe deterministically fast.
  static RawClient Connect(uint16_t port, int rcvbuf = 0) {
    RawClient c;
    if (rcvbuf > 0) {
      UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
      EXPECT_TRUE(fd.valid());
      setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_port = htons(port);
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa),
                         sizeof(sa));
      if (rc < 0 && errno == EINPROGRESS) {
        EXPECT_TRUE(
            WaitFd(fd.get(), POLLOUT, NowNs() + 2'000'000'000).ok());
      }
      c.fd_ = std::move(fd);
    } else {
      Result<int> fd = ConnectTcp("127.0.0.1", port, NowNs() + 2'000'000'000);
      EXPECT_TRUE(fd.ok()) << fd.status().ToString();
      c.fd_.reset(fd.value());
    }
    return c;
  }

  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t w = ::send(fd_.get(), bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!WaitFd(fd_.get(), POLLOUT, NowNs() + 5'000'000'000).ok()) return;
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      return;  // peer closed — fine, some tests provoke exactly that
    }
  }

  /// Reads one whole frame (blocking with deadline).
  Result<std::string> ReadFrame() {
    for (;;) {
      std::string_view rest(buf_.data() + off_, buf_.size() - off_);
      size_t frame_size = 0;
      auto peek = service::wire::PeekFrame(rest, &frame_size);
      if (peek == service::wire::FramePeek::kCorrupt) {
        return Status::Internal("corrupt response");
      }
      if (peek == service::wire::FramePeek::kReady) {
        std::string frame(rest.substr(0, frame_size));
        off_ += frame_size;
        return frame;
      }
      Status ready = WaitFd(fd_.get(), POLLIN, NowNs() + 5'000'000'000);
      if (!ready.ok()) return ready;
      char chunk[4096];
      ssize_t r = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (r > 0) {
        buf_.append(chunk, static_cast<size_t>(r));
        continue;
      }
      if (r == 0) return Status::Unavailable("EOF");
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Unavailable("recv error");
    }
  }

  /// True once the server has closed this connection (EOF/reset observed).
  bool WaitClosed(std::chrono::milliseconds timeout) {
    return WaitUntil(
        [this] {
          char chunk[4096];
          ssize_t r = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
          if (r > 0) return false;  // discard — we only care about close
          return r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR);
        },
        timeout);
  }

  int fd() const { return fd_.get(); }

 private:
  UniqueFd fd_;
  std::string buf_;
  size_t off_ = 0;
};

// --------------------------------------------------------------------------
// Parity: the Fig. 3 dialogue over a real socket is the in-process dialogue.
// --------------------------------------------------------------------------

TEST(TcpTransportTest, LoopbackFig3MatchesInProcessByteForByte) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);

  // Full navigation dialogue over the wire materializes the Fig. 3 answer.
  auto doc = FramedDocument::Open(&transport, kFig3).ValueOrDie();
  EXPECT_EQ(testing::MaterializeToTerm(doc.get()), kExpectedAnswer);

  // Byte-for-byte: the *same* request frame (same session, same node)
  // through the TCP transport and through the in-process transport yields
  // identical response bytes — the socket adds nothing and loses nothing.
  Frame fetch;
  fetch.type = MsgType::kFetchSubtree;
  fetch.session = doc->session_id();
  fetch.node = doc->Root();
  fetch.number = 64;  // depth: the whole answer
  std::string request = service::wire::EncodeFrame(fetch);
  Result<std::string> over_tcp = transport.RoundTrip(request);
  Result<std::string> in_process = service.RoundTrip(request);
  ASSERT_TRUE(over_tcp.ok()) << over_tcp.status().ToString();
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(over_tcp.value(), in_process.value());

  // The service-wide metrics frame now carries the listener's counters.
  RawClient metrics_client = RawClient::Connect(server.port());
  metrics_client.Send(MetricsRequest());
  Result<std::string> metrics = metrics_client.ReadFrame();
  ASSERT_TRUE(metrics.ok());
  Result<Frame> decoded = service::wire::DecodeFrame(metrics.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, MsgType::kMetricsText);
  EXPECT_NE(decoded.value().text.find("net{accepts="), std::string::npos);

  service::NetStats stats = server.stats();
  EXPECT_GE(stats.accepts, 2);
  EXPECT_GT(stats.frames_in, 0);
  EXPECT_GT(stats.frames_out, 0);
  EXPECT_GT(stats.rx_bytes, 0);
  EXPECT_GT(stats.tx_bytes, 0);
}

TEST(TcpTransportTest, EphemeralPortBinding) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer a(&service, {});
  TcpServer b(&service, {});
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());

  // Both listeners actually serve.
  for (uint16_t port : {a.port(), b.port()}) {
    RawClient c = RawClient::Connect(port);
    c.Send(MetricsRequest());
    EXPECT_TRUE(c.ReadFrame().ok());
  }
  b.Stop();  // stats provider hand-off: the metrics frame still works
  RawClient c = RawClient::Connect(a.port());
  c.Send(MetricsRequest());
  EXPECT_TRUE(c.ReadFrame().ok());
}

// --------------------------------------------------------------------------
// Frame reassembly and corrupt input.
// --------------------------------------------------------------------------

TEST(TcpTransportTest, FrameSplitAcrossOneByteWritesReassembles) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  RawClient c = RawClient::Connect(server.port());
  std::string request = MetricsRequest();
  for (char byte : request) {
    c.Send(std::string_view(&byte, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<std::string> response = c.ReadFrame();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  Result<Frame> decoded = service::wire::DecodeFrame(response.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, MsgType::kMetricsText);
  // Trickled bytes must have left the reassembly buffer non-empty at least
  // once between reads.
  EXPECT_GT(server.stats().partial_reads, 0);
}

TEST(TcpTransportTest, GarbledHeaderClosesOnlyThatConnection) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  RawClient sibling = RawClient::Connect(server.port());
  sibling.Send(MetricsRequest());
  ASSERT_TRUE(sibling.ReadFrame().ok());

  // Garbage magic: frame sync is gone, the connection must die.
  RawClient garbled = RawClient::Connect(server.port());
  garbled.Send(std::string(16, '\xff'));
  EXPECT_TRUE(garbled.WaitClosed(std::chrono::milliseconds(5000)));

  // Valid magic but an impossible length: same fate.
  RawClient oversized = RawClient::Connect(server.port());
  const char version = service::wire::EncodeFrame(Frame())[6];
  std::string huge = {'\xff', '\xff', '\xff', '\x7f', 'M', 'X', version, 6};
  oversized.Send(huge);
  EXPECT_TRUE(oversized.WaitClosed(std::chrono::milliseconds(5000)));

  EXPECT_TRUE(WaitUntil([&] { return server.stats().decode_closes >= 2; }));

  // The sibling connection never noticed.
  sibling.Send(MetricsRequest());
  EXPECT_TRUE(sibling.ReadFrame().ok());
}

TEST(TcpTransportTest, GarbledPayloadGetsTypedErrorFrameAndConnectionLives) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  RawClient c = RawClient::Connect(server.port());
  // Well-formed header (kFetch, 20-byte payload) over junk payload bytes:
  // the frame decodes *as a frame*, fails *as a message*, and the server's
  // typed kError response comes back on a connection that stays up — the
  // exact same rejection the in-process transport produces.
  const char version = service::wire::EncodeFrame(Frame())[6];
  std::string frame = {20, 0, 0, 0, 'M', 'X', version, 6};
  frame += std::string(20, '\xee');
  c.Send(frame);
  Result<std::string> response = c.ReadFrame();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  Result<Frame> decoded = service::wire::DecodeFrame(response.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, MsgType::kError);
  EXPECT_FALSE(decoded.value().ToStatus().ok());

  // Same connection keeps serving.
  c.Send(MetricsRequest());
  EXPECT_TRUE(c.ReadFrame().ok());
  EXPECT_EQ(server.stats().decode_closes, 0);
}

// --------------------------------------------------------------------------
// Pipelining: many frames in flight, responses in request order.
// --------------------------------------------------------------------------

TEST(TcpTransportTest, PipelinedResponsesArriveInRequestOrder) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);
  auto doc = FramedDocument::Open(&transport, kFig3).ValueOrDie();
  NodeId root = doc->Root();
  std::optional<NodeId> child = doc->Down(root);
  ASSERT_TRUE(child.has_value());

  // Distinct requests with distinct answers, interleaved and repeated.
  Frame fetch_root;
  fetch_root.type = MsgType::kFetch;
  fetch_root.session = doc->session_id();
  fetch_root.node = root;
  Frame fetch_child = fetch_root;
  fetch_child.node = *child;
  std::vector<std::string> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(service::wire::EncodeFrame(i % 2 == 0 ? fetch_root
                                                             : fetch_child));
  }
  Result<std::vector<std::string>> responses =
      transport.RoundTripMany(requests);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses.value().size(), requests.size());
  for (size_t i = 0; i < responses.value().size(); ++i) {
    Result<Frame> decoded = service::wire::DecodeFrame(responses.value()[i]);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().type, MsgType::kLabel);
    EXPECT_EQ(decoded.value().text, i % 2 == 0 ? "answer" : "med_home");
  }
}

TEST(TcpTransportTest, PipelinedBatchDyingMidReadSurfacesDataLoss) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});

  // A front that answers exactly ONE frame, then slams the connection: the
  // pipelined batch is desynced mid-read — responses 2..4 can never be
  // matched to their requests.
  uint16_t port = 0;
  Result<int> listener = ListenTcp("127.0.0.1", 0, 8, &port);
  ASSERT_TRUE(listener.ok());
  UniqueFd listen_fd(listener.value());
  std::thread front([&] {
    if (!WaitFd(listen_fd.get(), POLLIN, NowNs() + 5'000'000'000).ok()) return;
    int fd = accept4(listen_fd.get(), nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;
    UniqueFd conn(fd);
    std::string buf;
    for (;;) {
      size_t frame_size = 0;
      auto peek = service::wire::PeekFrame(buf, &frame_size);
      if (peek == service::wire::FramePeek::kReady) {
        Result<std::string> resp =
            service.RoundTrip(buf.substr(0, frame_size));
        if (!resp.ok()) return;
        size_t sent = 0;
        while (sent < resp.value().size()) {
          ssize_t w = ::send(conn.get(), resp.value().data() + sent,
                             resp.value().size() - sent, MSG_NOSIGNAL);
          if (w > 0) {
            sent += static_cast<size_t>(w);
          } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!WaitFd(conn.get(), POLLOUT, NowNs() + 1'000'000'000).ok()) {
              return;
            }
          } else if (!(w < 0 && errno == EINTR)) {
            return;
          }
        }
        return;  // one answer served; UniqueFd closes the connection
      }
      if (!WaitFd(conn.get(), POLLIN, NowNs() + 5'000'000'000).ok()) return;
      char chunk[4096];
      ssize_t r = ::recv(conn.get(), chunk, sizeof(chunk), 0);
      if (r > 0) {
        buf.append(chunk, static_cast<size_t>(r));
      } else if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR)) {
        return;
      }
    }
  });

  TcpTransportOptions copts;
  copts.port = port;
  copts.op_timeout_ns = 5'000'000'000;
  TcpFrameTransport transport(copts);
  std::vector<std::string> requests(4, MetricsRequest());
  Result<std::vector<std::string>> responses =
      transport.RoundTripMany(requests);
  front.join();

  // One of four answers arrived; the batch result must be kDataLoss — NOT a
  // retryable kUnavailable, because blindly re-sending the whole batch over
  // a fresh connection could double-apply the request that *was* answered.
  ASSERT_FALSE(responses.ok());
  EXPECT_EQ(responses.status().code(), Status::Code::kDataLoss);
  EXPECT_FALSE(IsRetryableCode(responses.status().code()));
  EXPECT_FALSE(transport.connected());

  // A single-frame RoundTrip keeps the retryable classification: the same
  // transport reports plain kUnavailable once reconnects keep failing.
  listen_fd.reset();  // stop listening: connects are now refused outright
  TcpTransportOptions dead;
  dead.port = port;
  dead.connect_timeout_ns = 100'000'000;
  dead.op_timeout_ns = 1'000'000'000;
  TcpFrameTransport dead_transport(dead);
  Result<std::string> single = dead_transport.RoundTrip(MetricsRequest());
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), Status::Code::kUnavailable);
}

// --------------------------------------------------------------------------
// Backpressure: a peer that stops reading gets disconnected, not buffered
// into oblivion.
// --------------------------------------------------------------------------

TEST(TcpTransportTest, SlowReaderIsDisconnectedAtHighWaterMark) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServerOptions opts;
  opts.so_sndbuf = 4096;        // tiny kernel buffer: the pipe fills fast
  opts.write_high_water = 4096; // tiny queue bound: the policy trips fast
  TcpServer server(&service, opts);
  ASSERT_TRUE(server.Start().ok());

  RawClient c = RawClient::Connect(server.port(), /*rcvbuf=*/4096);
  // Hundreds of metrics requests, never reading a byte back. Responses
  // queue: kernel buffers fill, then the per-connection write queue crosses
  // the high-water mark.
  std::string burst;
  for (int i = 0; i < 400; ++i) burst += MetricsRequest();
  c.Send(burst);

  EXPECT_TRUE(WaitUntil([&] { return server.stats().slow_reader_closes >= 1; }))
      << server.stats().ToString();
  EXPECT_TRUE(c.WaitClosed(std::chrono::milliseconds(5000)));
  EXPECT_GE(server.stats().backpressure_stalls, 1);
}

TEST(TcpTransportTest, ReadsPauseAtPipelineLimit) {
  TcpFixture fx(std::chrono::milliseconds(50));  // slow enough to pile up
  MediatorService service(&fx.env(), {});
  TcpServerOptions opts;
  opts.max_pipeline = 2;
  TcpServer server(&service, opts);
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);
  auto doc = FramedDocument::Open(&transport, kFig3).ValueOrDie();
  Frame fetch;
  fetch.type = MsgType::kFetch;
  fetch.session = doc->session_id();
  fetch.node = doc->Root();
  // Eight commands behind a 50 ms source with a pipeline bound of two:
  // the reactor must pause reads (EPOLLIN off) and resume them as
  // completions drain — and the answers still come back, in order.
  std::vector<std::string> requests(8, service::wire::EncodeFrame(fetch));
  Result<std::vector<std::string>> responses =
      transport.RoundTripMany(requests);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  for (const std::string& bytes : responses.value()) {
    Result<Frame> decoded = service::wire::DecodeFrame(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().type, MsgType::kLabel);
    EXPECT_EQ(decoded.value().text, "answer");
  }
  EXPECT_GE(server.stats().read_pauses, 1);
}

// --------------------------------------------------------------------------
// Graceful shutdown: Stop() lets in-flight commands finish and flushes
// their responses before closing.
// --------------------------------------------------------------------------

TEST(TcpTransportTest, StopDrainsInFlightCommand) {
  TcpFixture fx(std::chrono::milliseconds(300));  // slow sources
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);
  auto doc = FramedDocument::Open(&transport, kFig3).ValueOrDie();

  // kFetch of the root resolves the first binding through the (slow)
  // sources — the command is mid-flight when Stop() lands.
  Frame fetch;
  fetch.type = MsgType::kFetch;
  fetch.session = doc->session_id();
  fetch.node = doc->Root();
  std::string request = service::wire::EncodeFrame(fetch);

  Result<std::string> response = Status::Internal("not run");
  std::thread client([&] { response = transport.RoundTrip(request); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();  // returns only after the drain
  client.join();

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  Result<Frame> decoded = service::wire::DecodeFrame(response.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, MsgType::kLabel);
  EXPECT_EQ(decoded.value().text, "answer");
}

// --------------------------------------------------------------------------
// Inline commands and the standby hand-over: a session command runs on the
// event loop thread, and a command that waits on a source hands the loop to
// the standby first.
// --------------------------------------------------------------------------

/// "slowSrc" is the homes document behind a gated 50 ms SlowLxpWrapper,
/// "homesSrc" the same document behind a plain wrapper.
class GatedFixture {
 public:
  GatedFixture() : homes_(testing::Doc(kHomes)) {
    env_.RegisterWrapperFactory(
        "slowSrc",
        [this] {
          return std::make_unique<SlowLxpWrapper>(
              homes_.get(), std::chrono::milliseconds(50), &gate_);
        },
        "homes.xml");
    env_.RegisterWrapperFactory(
        "homesSrc",
        [this] {
          return std::make_unique<wrappers::XmlLxpWrapper>(homes_.get());
        },
        "homes.xml");
  }

  SessionEnvironment& env() { return env_; }
  Gate& gate() { return gate_; }

 private:
  std::unique_ptr<xml::Document> homes_;
  Gate gate_;
  SessionEnvironment env_;
};

/// Every home of `source`, under a root element named `root`.
std::string HomesQuery(const std::string& source, const std::string& root) {
  return "CONSTRUCT <" + root + "> $H {$H} </" + root + "> {} WHERE " +
         source + " homes.home $H";
}

/// A command that hands its loop over parks as the new standby only after
/// its response has left; a client firing its next command at once can
/// beat it, and that command then takes the pool. The inline-count checks
/// below pause first.
void LetStandbyPark() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

Frame FetchFrame(uint64_t session, const NodeId& node) {
  Frame f;
  f.type = MsgType::kFetch;
  f.session = session;
  f.node = node;
  return f;
}

TEST(TcpTransportTest, BlockedInlineCommandDoesNotStallItsLoop) {
  // One event loop, two connections. Session A's command blocks in its
  // source; session B's commands on the same loop must not queue behind it.
  GatedFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServerOptions opts;
  opts.event_loops = 1;
  TcpServer server(&service, opts);
  ASSERT_TRUE(server.Start().ok());
  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport_a(copts);
  TcpFrameTransport transport_b(copts);

  auto doc_a = FramedDocument::Open(&transport_a, HomesQuery("slowSrc", "a"))
                   .ValueOrDie();
  auto doc_b = FramedDocument::Open(&transport_b, HomesQuery("homesSrc", "b"))
                   .ValueOrDie();
  NodeId root_b = doc_b->Root();
  ASSERT_EQ(doc_b->Fetch(root_b), "b");
  std::optional<NodeId> home_b = doc_b->Down(root_b);
  ASSERT_TRUE(home_b.has_value());

  NodeId root_a = doc_a->Root();
  ASSERT_TRUE(root_a.valid());
  LetStandbyPark();
  const int64_t inline_before = service.Metrics().requests_inline;
  std::atomic<bool> a_done{false};
  std::thread a([&] {
    std::vector<SubtreeEntry> entries;
    doc_a->FetchSubtree(root_a, -1, &entries);
    EXPECT_TRUE(doc_a->last_status().ok());
    EXPECT_FALSE(entries.empty());
    a_done = true;
  });
  ASSERT_TRUE(WaitUntil([&] { return fx.gate().entered.load() > 0; }));

  int64_t worst_ns = 0;
  for (int i = 0; i < 100; ++i) {
    const int64_t t0 = NowNs();
    Label label = i % 2 == 0 ? doc_b->Fetch(root_b) : doc_b->Fetch(*home_b);
    worst_ns = std::max(worst_ns, NowNs() - t0);
    ASSERT_EQ(label, i % 2 == 0 ? "b" : "home");
  }
  EXPECT_FALSE(a_done.load()) << "session A was not blocked throughout";
  EXPECT_LT(worst_ns, 25'000'000) << "a command waited behind session A";
  // A's command ran on the loop thread and handed the loop over; with that
  // thread blocked the loop had no standby, so B's commands took the pool.
  EXPECT_EQ(service.Metrics().requests_inline, inline_before + 1);
  fx.gate().hold = false;
  a.join();
}

TEST(TcpTransportTest, PipelinedSlowSessionsOnOneConnectionOverlap) {
  // N sessions on one connection, one slow command each, sent as one
  // pipelined batch: the earlier frames run on the pool and the last one
  // on the loop thread, so the batch takes about one command's time — and
  // the responses still come back in request order.
  GatedFixture fx;
  fx.gate().hold = false;  // every fill just takes 50 ms
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);

  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<FramedDocument>> docs;
  std::vector<NodeId> roots;
  for (int i = 0; i <= kSessions; ++i) {
    docs.push_back(FramedDocument::Open(
                       &transport, HomesQuery("slowSrc", "s" + std::to_string(i)))
                       .ValueOrDie());
    roots.push_back(docs.back()->Root());
  }
  // Session kSessions alone: the time of one command.
  int64_t t0 = NowNs();
  ASSERT_EQ(docs[kSessions]->Fetch(roots[kSessions]), "s4");
  const int64_t one_ns = NowNs() - t0;
  ASSERT_GE(one_ns, 50'000'000);

  std::vector<std::string> requests;
  for (int i = 0; i < kSessions; ++i) {
    requests.push_back(service::wire::EncodeFrame(
        FetchFrame(docs[static_cast<size_t>(i)]->session_id(),
                   roots[static_cast<size_t>(i)])));
  }
  LetStandbyPark();
  const int64_t inline_before = service.Metrics().requests_inline;
  t0 = NowNs();
  Result<std::vector<std::string>> responses =
      transport.RoundTripMany(requests);
  const int64_t batch_ns = NowNs() - t0;
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses.value().size(), requests.size());
  for (int i = 0; i < kSessions; ++i) {
    Result<Frame> decoded =
        service::wire::DecodeFrame(responses.value()[static_cast<size_t>(i)]);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().type, MsgType::kLabel);
    EXPECT_EQ(decoded.value().text, "s" + std::to_string(i));
  }
  EXPECT_LT(batch_ns, 2 * one_ns)
      << "one command: " << one_ns / 1'000'000 << " ms, " << kSessions
      << " pipelined: " << batch_ns / 1'000'000 << " ms";
  EXPECT_GE(service.Metrics().requests_inline, inline_before + 1);
}

TEST(TcpTransportTest, StopDrainsCommandBlockedInlineInASource) {
  GatedFixture fx;
  MediatorService service(&fx.env(), {});
  TcpServer server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  TcpTransportOptions copts;
  copts.port = server.port();
  TcpFrameTransport transport(copts);
  auto doc = FramedDocument::Open(&transport, HomesQuery("slowSrc", "a"))
                 .ValueOrDie();
  NodeId root = doc->Root();
  LetStandbyPark();
  const int64_t inline_before = service.Metrics().requests_inline;

  std::string request =
      service::wire::EncodeFrame(FetchFrame(doc->session_id(), root));
  Result<std::string> response = Status::Internal("not run");
  std::thread client([&] { response = transport.RoundTrip(request); });
  ASSERT_TRUE(WaitUntil([&] { return fx.gate().entered.load() > 0; }));
  // Stop() lands while the command is blocked in the source on a loop
  // thread; the source lets go a little later, and Stop() returns only
  // after the response has gone out.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fx.gate().hold = false;
  });
  server.Stop();
  releaser.join();
  client.join();

  ASSERT_TRUE(response.ok()) << response.status().ToString();
  Result<Frame> decoded = service::wire::DecodeFrame(response.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, MsgType::kLabel);
  EXPECT_EQ(decoded.value().text, "a");
  EXPECT_EQ(service.Metrics().requests_inline, inline_before + 1);
}

// --------------------------------------------------------------------------
// Client deadlines and retry-driven reconnect (the PR 4 machinery over a
// real wire).
// --------------------------------------------------------------------------

TEST(TcpTransportTest, DeadlineOnStalledServerIsNotRetryable) {
  // A listener that never accepts: the kernel completes the handshake from
  // the backlog, then nothing ever answers.
  uint16_t port = 0;
  Result<int> listener = ListenTcp("127.0.0.1", 0, 1, &port);
  ASSERT_TRUE(listener.ok());
  UniqueFd hold(listener.value());

  TcpTransportOptions copts;
  copts.port = port;
  copts.op_timeout_ns = 100'000'000;  // 100 ms
  TcpFrameTransport transport(copts);
  Result<std::string> response = transport.RoundTrip(MetricsRequest());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), Status::Code::kDeadlineExceeded);
  // The budget is gone either way — the retry machinery must not spin on it.
  EXPECT_FALSE(IsRetryableCode(response.status().code()));
  // The stream is desynced (half a dialogue in flight), so the transport
  // must have dropped the connection.
  EXPECT_FALSE(transport.connected());
}

TEST(TcpTransportTest, RetryPolicyReconnectsThroughFlakyFront) {
  TcpFixture fx;
  MediatorService service(&fx.env(), {});

  // A flaky front: first connection is dropped on the floor (the client
  // sees kUnavailable), every later one is served by proxying frames to the
  // in-process service.
  uint16_t port = 0;
  Result<int> listener = ListenTcp("127.0.0.1", 0, 8, &port);
  ASSERT_TRUE(listener.ok());
  UniqueFd listen_fd(listener.value());
  std::atomic<bool> stop{false};
  std::thread front([&] {
    int conn_index = 0;
    while (!stop.load()) {
      if (!WaitFd(listen_fd.get(), POLLIN, NowNs() + 100'000'000).ok()) {
        continue;
      }
      int fd = accept4(listen_fd.get(), nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) continue;
      UniqueFd conn(fd);
      if (conn_index++ == 0) continue;  // drop the first connection
      std::string buf;
      size_t off = 0;
      while (!stop.load()) {
        std::string_view rest(buf.data() + off, buf.size() - off);
        size_t frame_size = 0;
        auto peek = service::wire::PeekFrame(rest, &frame_size);
        if (peek == service::wire::FramePeek::kCorrupt) break;
        if (peek == service::wire::FramePeek::kReady) {
          Result<std::string> resp =
              service.RoundTrip(std::string(rest.substr(0, frame_size)));
          off += frame_size;
          if (!resp.ok()) break;
          size_t sent = 0;
          bool write_ok = true;
          while (sent < resp.value().size()) {
            ssize_t w = ::send(conn.get(), resp.value().data() + sent,
                               resp.value().size() - sent, MSG_NOSIGNAL);
            if (w > 0) {
              sent += static_cast<size_t>(w);
            } else if (w < 0 &&
                       (errno == EAGAIN || errno == EWOULDBLOCK)) {
              if (!WaitFd(conn.get(), POLLOUT, NowNs() + 1'000'000'000)
                       .ok()) {
                write_ok = false;
                break;
              }
            } else if (!(w < 0 && errno == EINTR)) {
              write_ok = false;
              break;
            }
          }
          if (!write_ok) break;
          continue;
        }
        if (!WaitFd(conn.get(), POLLIN, NowNs() + 100'000'000).ok()) continue;
        char chunk[4096];
        ssize_t r = ::recv(conn.get(), chunk, sizeof(chunk), 0);
        if (r > 0) {
          buf.append(chunk, static_cast<size_t>(r));
        } else if (r == 0) {
          break;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          break;
        }
      }
    }
  });

  TcpTransportOptions copts;
  copts.port = port;
  TcpFrameTransport transport(copts);  // auto_reconnect on by default

  // The first open frame lands on the doomed connection -> kUnavailable ->
  // the retry policy re-issues it, the transport reconnects, the second
  // connection serves the whole session.
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ns = 1'000'000;
  auto doc = FramedDocument::Open(&transport, kFig3, /*deadline_ns=*/0, retry);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(testing::MaterializeToTerm(doc.value().get()), kExpectedAnswer);

  stop.store(true);
  front.join();
}

}  // namespace
}  // namespace mix::net::tcp
