// Real network transport for mixd: an edge-triggered epoll reactor hosting
// a MediatorService behind the existing framed wire protocol.
//
// Shape (DESIGN.md §4 "Real TCP transport"):
//
//   * One nonblocking listener + N event-loop threads. The acceptor (event
//     loop 0 owns the listening fd) distributes accepted connections
//     round-robin across loops via per-loop adoption queues + eventfd
//     wakeups, so connection counts balance deterministically without
//     SO_REUSEPORT kernel support.
//   * Per-connection read buffer with incremental frame reassembly: bytes
//     accumulate until wire::PeekFrame reports a whole frame, which is
//     handed to the MediatorService — the same decoder and typed
//     rejections as the in-process/sim paths (a truncated or garbled
//     PAYLOAD is an error frame; a garbled HEADER loses frame sync and
//     closes only that connection).
//   * Commands run where they arrive: the last whole frame a read leaves in
//     a connection's buffer goes to MediatorService::CallInline, so a
//     session command whose lane is idle runs to completion on the loop
//     thread — no hop to an executor worker and back. Earlier frames of a
//     pipelined batch, and every frame while the loop has no parked
//     standby, go to CallAsync and the worker pool.
//   * Leader and standby: each loop has two threads. One leads (waits in
//     epoll and owns the loop's state); the other is parked. An inline
//     command installs a BlockHook (core/block_hook.h), and when it is
//     about to wait on a source the hook hands the loop — the rest of the
//     epoll batch, plus the current connection to re-read — to the parked
//     thread. The command's thread finishes it, releases its response,
//     and parks as the loop's new standby. A slow source therefore never
//     stalls the other connections of its loop.
//   * Pipelining with in-order responses: requests dispatched from one
//     connection may complete on different workers in any order (distinct
//     sessions run in parallel), but responses are released to the wire in
//     request order, so a pipelined client needs no correlation ids — the
//     protocol stays exactly the PR 3 codec.
//   * Backpressure, both directions: reads pause (EPOLLIN disarmed) while
//     a connection has max_pipeline commands in flight, and a write queue
//     exceeding write_high_water bytes disconnects the slow reader rather
//     than buffering without bound. Kernel-full writes re-arm EPOLLOUT.
//   * Graceful shutdown: Stop() stops accepting, lets in-flight commands
//     complete and their responses flush (up to drain_timeout_ns), then
//     closes. Idle connections are reaped by a per-loop sweep.
//
// Thread-safety: sockets are registered EPOLLET; the loop's current leader
// performs all reads and owns the loop's connection table, and leadership
// passes between the loop's two threads under the loop's mutex. Completions
// (workers, and loop threads finishing an inline command after handing the
// loop over) append to the connection's mutex-guarded write queue and flush
// opportunistically — send() on a nonblocking fd never blocks. MSG_NOSIGNAL
// everywhere: a dead peer is an errno, never SIGPIPE. The whole reactor
// runs under TSan in CI.
//
// Lifetime: the server must be destroyed (or Stop()ped) before the
// MediatorService it serves. Stop() joins every loop thread, so it waits
// for an inline command to come back from its source.
#ifndef MIX_NET_TCP_TCP_SERVER_H_
#define MIX_NET_TCP_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "net/tcp/socket_util.h"
#include "service/metrics.h"
#include "service/service.h"

namespace mix::net::tcp {

struct TcpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; the bound port is `port()` after Start().
  uint16_t port = 0;
  /// Reactor threads (>= 1). Loop 0 also owns the acceptor.
  int event_loops = 2;
  int listen_backlog = 128;
  /// Accepts beyond this are closed immediately (load shedding).
  size_t max_connections = 1024;
  /// Queued-but-unsent response bytes per connection before the peer is
  /// declared a slow reader and disconnected.
  size_t write_high_water = 8u << 20;
  /// In-flight (dispatched, response not yet released) commands per
  /// connection before reads pause — the pipelining bound.
  size_t max_pipeline = 128;
  /// Close connections idle longer than this (< 0: never).
  int64_t idle_timeout_ns = -1;
  /// How long Stop() waits for in-flight commands to drain.
  int64_t drain_timeout_ns = 5'000'000'000;
  /// > 0: SO_SNDBUF for accepted sockets (tests shrink it to make
  /// slow-reader backpressure trip deterministically).
  int so_sndbuf = 0;
};

class TcpServer {
 public:
  /// `service` is not owned and must outlive this server.
  TcpServer(service::MediatorService* service, TcpServerOptions options);
  ~TcpServer();

  /// Binds, registers the listener, spawns the event loops, and installs
  /// this server as the service's net-stats provider. Fails (without
  /// side effects) if the address cannot be bound.
  Status Start();

  /// Graceful shutdown; idempotent. Safe to call while clients are mid
  /// round-trip: their in-flight commands drain first.
  void Stop();

  /// Bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  service::NetStats stats() const;

 private:
  struct Conn;
  struct Loop;
  struct Counters;
  class HandOff;

  /// Body of both threads of a loop; `lead` is true for the one that
  /// starts as leader.
  void RunLoopThread(Loop* loop, bool lead);
  /// Parks the calling thread as the loop's standby until the leader hands
  /// the loop over (true) or the loop has finished (false).
  static bool Park(Loop* loop);
  /// Leads the loop: returns true when this thread handed the loop to the
  /// standby (and finished its inline command), false when the loop is
  /// done.
  bool Lead(Loop* loop);
  /// Handles one epoll event (its data.ptr and event mask); true when the
  /// loop was handed over.
  bool HandleEvent(Loop* loop, void* tag, uint32_t events);
  void AcceptNew(Loop* loop);
  void AdoptPending(Loop* loop);
  /// Reads until EAGAIN and dispatches what arrived. With `may_run_here`
  /// the last whole frame may run inline; returns true when that command
  /// handed the loop over (the caller then owns nothing of the loop).
  bool HandleReadable(Loop* loop, const std::shared_ptr<Conn>& conn,
                      bool may_run_here);
  /// Parses whole frames out of conn->in_buf and dispatches them; returns
  /// false when the connection was closed (corrupt header). With `held`,
  /// the last whole frame is left in *held (undispatched) instead.
  bool ParseFrames(Loop* loop, const std::shared_ptr<Conn>& conn,
                   std::string* held);
  /// Dispatches `frame` — through CallInline under a HandOff hook when the
  /// loop has a parked standby, through CallAsync otherwise. True when the
  /// loop was handed over.
  bool RunLastFrame(Loop* loop, const std::shared_ptr<Conn>& conn,
                    std::string frame);
  void DispatchFrame(const std::shared_ptr<Conn>& conn, std::string frame,
                     bool run_here = false);
  /// Completion path (a worker, or a loop thread running the command
  /// inline): queue in order, flush, police the high-water mark. Static on
  /// purpose — a late completion may run after the server object is gone,
  /// so it may only touch the Conn (which the callback keeps alive) and the
  /// counters it holds.
  static void CompleteResponse(const std::shared_ptr<Conn>& conn, uint64_t seq,
                               std::string response);
  void CloseConn(Loop* loop, const std::shared_ptr<Conn>& conn);
  void ServiceAttention(Loop* loop);
  void SweepIdle(Loop* loop);
  void DrainForShutdown(Loop* loop);

  service::MediatorService* service_;
  TcpServerOptions options_;
  std::shared_ptr<Counters> counters_;
  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  std::atomic<int64_t> drain_deadline_ns_{-1};
  std::atomic<size_t> next_loop_{0};
};

}  // namespace mix::net::tcp

#endif  // MIX_NET_TCP_TCP_SERVER_H_
