#include "net/tcp/tcp_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>

#include "core/block_hook.h"
#include "service/wire.h"

namespace mix::net::tcp {

namespace {
constexpr size_t kReadChunk = 64 * 1024;
/// Compact the read buffer once the consumed prefix crosses this.
constexpr size_t kCompactThreshold = 64 * 1024;
}  // namespace

/// Listener/connection counters. Lives in a shared_ptr so completion
/// callbacks that outlive a force-closed connection (drain-deadline
/// shutdown) can still account without touching the (possibly destroyed)
/// server.
struct TcpServer::Counters {
  std::atomic<int64_t> accepts{0};
  std::atomic<int64_t> conns_active{0};
  std::atomic<int64_t> conns_closed{0};
  std::atomic<int64_t> rx_bytes{0};
  std::atomic<int64_t> tx_bytes{0};
  std::atomic<int64_t> frames_in{0};
  std::atomic<int64_t> frames_out{0};
  std::atomic<int64_t> partial_reads{0};
  std::atomic<int64_t> backpressure_stalls{0};
  std::atomic<int64_t> slow_reader_closes{0};
  std::atomic<int64_t> idle_closes{0};
  std::atomic<int64_t> decode_closes{0};
  std::atomic<int64_t> read_pauses{0};

  service::NetStats Snapshot() const {
    service::NetStats s;
    s.accepts = accepts.load(std::memory_order_relaxed);
    s.conns_active = conns_active.load(std::memory_order_relaxed);
    s.conns_closed = conns_closed.load(std::memory_order_relaxed);
    s.rx_bytes = rx_bytes.load(std::memory_order_relaxed);
    s.tx_bytes = tx_bytes.load(std::memory_order_relaxed);
    s.frames_in = frames_in.load(std::memory_order_relaxed);
    s.frames_out = frames_out.load(std::memory_order_relaxed);
    s.partial_reads = partial_reads.load(std::memory_order_relaxed);
    s.backpressure_stalls = backpressure_stalls.load(std::memory_order_relaxed);
    s.slow_reader_closes = slow_reader_closes.load(std::memory_order_relaxed);
    s.idle_closes = idle_closes.load(std::memory_order_relaxed);
    s.decode_closes = decode_closes.load(std::memory_order_relaxed);
    s.read_pauses = read_pauses.load(std::memory_order_relaxed);
    return s;
  }
};

/// One accepted connection.
///
/// Locking discipline (what keeps the reactor TSan-clean):
///   * in_buf / in_off / next_dispatch_seq are touched only by the owning
///     loop's current leader.
///   * Everything the completion path needs — fd validity, the write queue,
///     the in-order release machinery, in_flight, epoll arming state — is
///     guarded by `mu`.
///   * The fd is *closed* only by the owning loop's leader (under mu);
///     completing threads use it only under mu after checking `closed`, so
///     close/send can never race and a recycled descriptor can never be
///     written.
///   * Loop resources (epoll fd, wake fd) are only touched under mu with
///     `closed == false`; the loop cannot exit while such a section runs
///     (its own close needs mu), so those fds are provably still open.
struct TcpServer::Conn : std::enable_shared_from_this<TcpServer::Conn> {
  // Immutable after adoption.
  Loop* loop = nullptr;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::shared_ptr<Counters> counters;
  size_t write_high_water = 0;
  size_t max_pipeline = 0;

  // Owning loop's leader only.
  std::string in_buf;
  size_t in_off = 0;
  uint64_t next_dispatch_seq = 0;

  std::atomic<int64_t> last_active_ns{0};

  std::mutex mu;
  int fd = -1;
  bool closed = false;
  bool want_write = false;
  bool read_paused = false;
  bool draining_close = false;  ///< close as soon as the queue flushes
  bool doomed = false;          ///< owning loop should close asap
  bool resume_parse = false;    ///< owning loop should re-run the parser
  uint64_t next_release_seq = 0;
  std::map<uint64_t, std::string> pending;  ///< out-of-order completions
  std::string out_buf;
  size_t out_off = 0;
  size_t in_flight = 0;

  uint32_t EventMaskLocked() const {
    return EPOLLET | EPOLLRDHUP | (read_paused ? 0u : uint32_t{EPOLLIN}) |
           (want_write ? uint32_t{EPOLLOUT} : 0u);
  }
  /// Re-registers the epoll interest set. EPOLL_CTL_MOD re-arms the edge,
  /// so enabling EPOLLIN with bytes already buffered in the kernel WILL
  /// deliver a fresh event.
  void UpdateEventsLocked() {
    if (closed) return;
    epoll_event ev{};
    ev.events = EventMaskLocked();
    ev.data.ptr = this;
    (void)epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  }
  /// Asks the owning loop to close this connection (callable from any
  /// thread under mu while !closed).
  void DoomLocked() {
    if (closed || doomed) return;
    doomed = true;
    WakeLoopLocked();
  }
  void WakeLoopLocked();

  /// Drains the write queue into the socket; arms EPOLLOUT when the kernel
  /// is full, dooms the connection on a hard error, and — once empty —
  /// completes a pending draining close. mu held, !closed.
  void FlushLocked() {
    while (out_off < out_buf.size()) {
      ssize_t w = ::send(fd, out_buf.data() + out_off, out_buf.size() - out_off,
                         MSG_NOSIGNAL);
      if (w > 0) {
        out_off += static_cast<size_t>(w);
        counters->tx_bytes.fetch_add(w, std::memory_order_relaxed);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        counters->backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
        if (!want_write) {
          want_write = true;
          UpdateEventsLocked();
        }
        return;
      }
      DoomLocked();  // EPIPE / ECONNRESET: peer is gone
      return;
    }
    out_buf.clear();
    out_off = 0;
    if (want_write) {
      want_write = false;
      UpdateEventsLocked();
    }
    if (draining_close) DoomLocked();
  }
};

/// One reactor: an epoll instance, an eventfd for cross-thread wakeups, the
/// connections it owns, and its two threads. The fields from `conns` down
/// to `listener_registered` belong to the loop's current leader;
/// leadership passes under `lead_mu`, which orders every access. Adoption
/// goes through the mutex-guarded pending queue.
struct TcpServer::Loop {
  int index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;

  std::unordered_map<Conn*, std::shared_ptr<Conn>> conns;
  /// Keeps conns closed mid-batch alive until the batch's stale epoll
  /// events can no longer reference them.
  std::vector<std::shared_ptr<Conn>> graveyard;
  /// The epoll batch in progress: events[next_event, n_events) are still
  /// to be handled — by whichever thread leads when they are reached.
  std::vector<epoll_event> events = std::vector<epoll_event>(128);
  int n_events = 0;
  int next_event = 0;
  /// A connection to re-read before the rest of the batch: the one whose
  /// inline command handed the loop over.
  std::shared_ptr<Conn> resume_conn;
  bool listener_registered = false;

  std::mutex lead_mu;
  std::condition_variable lead_cv;
  bool handed_over = false;  ///< the parked standby should lead (lead_mu)
  bool finished = false;     ///< the loop is done; threads exit (lead_mu)
  /// A thread is parked and can take the loop over. Set by the parking
  /// thread, cleared by the leader handing over — read lock-free by the
  /// leader deciding whether a command may run inline.
  std::atomic<bool> standby_parked{false};

  std::mutex pending_mu;
  std::vector<int> pending_fds;
  std::atomic<bool> attention{false};

  /// epoll data.ptr sentinels (distinct stable addresses).
  int wake_marker = 0;
  int listen_marker = 0;

  /// The leader and the standby; joined by Stop() before the loop dies.
  std::vector<std::thread> threads;

  ~Loop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void Wake() {
    uint64_t one = 1;
    ssize_t rc = ::write(wake_fd, &one, sizeof(one));
    (void)rc;
  }
};

void TcpServer::Conn::WakeLoopLocked() {
  loop->attention.store(true, std::memory_order_release);
  uint64_t one = 1;
  ssize_t rc = ::write(wake_fd, &one, sizeof(one));
  (void)rc;
}

/// The hook an inline command runs under: before its first wait on a
/// source it passes the loop to the parked standby, marking `conn` to be
/// re-read first. Installed only while the loop has a parked standby, and
/// only the leader clears that flag, so the standby is still parked when
/// the hook fires.
class TcpServer::HandOff final : public BlockHook {
 public:
  HandOff(Loop* loop, std::shared_ptr<Conn> conn)
      : loop_(loop), conn_(std::move(conn)) {}
  HandOff(const HandOff&) = delete;
  HandOff& operator=(const HandOff&) = delete;

  void BeforeBlock() override {
    if (fired_) return;
    fired_ = true;
    loop_->resume_conn = std::move(conn_);
    {
      std::lock_guard<std::mutex> lock(loop_->lead_mu);
      loop_->standby_parked.store(false);
      loop_->handed_over = true;
    }
    loop_->lead_cv.notify_one();
  }

  bool fired() const { return fired_; }

 private:
  Loop* loop_;
  std::shared_ptr<Conn> conn_;
  bool fired_ = false;
};

TcpServer::TcpServer(service::MediatorService* service, TcpServerOptions options)
    : service_(service),
      options_(std::move(options)),
      counters_(std::make_shared<Counters>()) {
  if (options_.event_loops < 1) options_.event_loops = 1;
  if (options_.max_pipeline < 1) options_.max_pipeline = 1;
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (started_.load()) return Status::Internal("TcpServer already started");
  uint16_t bound = 0;
  Result<int> lfd = ListenTcp(options_.bind_address, options_.port,
                              options_.listen_backlog, &bound);
  if (!lfd.ok()) return lfd.status();
  listen_fd_.reset(lfd.value());
  port_ = bound;

  for (int i = 0; i < options_.event_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      listen_fd_.reset();
      loops_.clear();
      return Status::Internal("epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &loop->wake_marker;
    epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;  // level-triggered: accept backlog can't starve
      lev.data.ptr = &loop->listen_marker;
      epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_.get(), &lev);
      loop->listener_registered = true;
    }
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->threads.emplace_back([this, raw] { RunLoopThread(raw, true); });
    raw->threads.emplace_back([this, raw] { RunLoopThread(raw, false); });
  }
  service_->SetNetStatsProvider(
      [c = counters_] { return c->Snapshot(); });
  started_.store(true);
  return Status::OK();
}

void TcpServer::Stop() {
  if (!started_.load() || stopped_) return;
  service_->SetNetStatsProvider(nullptr);
  drain_deadline_ns_.store(NowNs() + std::max<int64_t>(0, options_.drain_timeout_ns));
  stopping_.store(true);
  for (auto& loop : loops_) loop->Wake();
  for (auto& loop : loops_) {
    for (std::thread& t : loop->threads) t.join();
  }
  loops_.clear();
  listen_fd_.reset();
  stopped_ = true;
}

service::NetStats TcpServer::stats() const { return counters_->Snapshot(); }

void TcpServer::RunLoopThread(Loop* loop, bool lead) {
  for (;;) {
    if (!lead && !Park(loop)) return;
    if (!Lead(loop)) break;
    lead = false;  // handed the loop over mid-command: park as the standby
  }
  {
    std::lock_guard<std::mutex> lock(loop->lead_mu);
    loop->finished = true;
  }
  loop->lead_cv.notify_all();
}

bool TcpServer::Park(Loop* loop) {
  std::unique_lock<std::mutex> lock(loop->lead_mu);
  if (loop->finished) return false;
  loop->standby_parked.store(true);
  loop->lead_cv.wait(lock,
                     [loop] { return loop->handed_over || loop->finished; });
  if (!loop->handed_over) return false;
  loop->handed_over = false;
  return true;
}

bool TcpServer::Lead(Loop* loop) {
  for (;;) {
    if (loop->resume_conn != nullptr) {
      std::shared_ptr<Conn> conn = std::move(loop->resume_conn);
      if (loop->conns.count(conn.get()) > 0 &&
          HandleReadable(loop, conn, /*may_run_here=*/true)) {
        return true;
      }
    }
    while (loop->next_event < loop->n_events) {
      const epoll_event& ev = loop->events[static_cast<size_t>(loop->next_event++)];
      if (HandleEvent(loop, ev.data.ptr, ev.events)) return true;
    }
    // End of batch.
    const bool stopping = stopping_.load(std::memory_order_acquire);
    AdoptPending(loop);
    if (loop->attention.exchange(false, std::memory_order_acq_rel)) {
      ServiceAttention(loop);
    }
    SweepIdle(loop);
    loop->graveyard.clear();
    if (stopping) {
      if (loop->listener_registered) {
        epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_.get(), nullptr);
        loop->listener_registered = false;
      }
      DrainForShutdown(loop);
      if (loop->conns.empty()) return false;
    }
    int timeout_ms = 500;
    if (stopping) {
      timeout_ms = 10;
    } else if (options_.idle_timeout_ns >= 0) {
      int64_t half = options_.idle_timeout_ns / 2'000'000;
      timeout_ms = static_cast<int>(std::max<int64_t>(1, std::min<int64_t>(100, half)));
    }
    int n = epoll_wait(loop->epoll_fd, loop->events.data(),
                       static_cast<int>(loop->events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) return false;
    loop->n_events = std::max(n, 0);
    loop->next_event = 0;
  }
}

bool TcpServer::HandleEvent(Loop* loop, void* tag, uint32_t events) {
  if (tag == &loop->wake_marker) {
    uint64_t buf;
    while (::read(loop->wake_fd, &buf, sizeof(buf)) > 0) {
    }
    return false;
  }
  if (tag == &loop->listen_marker) {
    if (!stopping_.load(std::memory_order_acquire)) AcceptNew(loop);
    return false;
  }
  auto it = loop->conns.find(static_cast<Conn*>(tag));
  if (it == loop->conns.end()) return false;  // stale event from this batch
  std::shared_ptr<Conn> conn = it->second;
  if (events & EPOLLOUT) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->closed) conn->FlushLocked();
  }
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
    return HandleReadable(loop, conn, /*may_run_here=*/true);
  }
  return false;
}

void TcpServer::AcceptNew(Loop* loop) {
  for (;;) {
    int fd = accept4(listen_fd_.get(), nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: the next event retries
    }
    if (counters_->conns_active.load(std::memory_order_relaxed) >=
        static_cast<int64_t>(options_.max_connections)) {
      ::close(fd);  // shed load: beyond the connection budget
      continue;
    }
    (void)SetNoDelay(fd);
    if (options_.so_sndbuf > 0) {
      (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                       sizeof(options_.so_sndbuf));
    }
    counters_->accepts.fetch_add(1, std::memory_order_relaxed);
    counters_->conns_active.fetch_add(1, std::memory_order_relaxed);
    size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    Loop* dest = loops_[target].get();
    if (dest == loop) {
      // Adopt directly: no queue hop for connections this loop owns.
      std::lock_guard<std::mutex> lock(dest->pending_mu);
      dest->pending_fds.push_back(fd);
      dest->attention.store(true, std::memory_order_release);
    } else {
      {
        std::lock_guard<std::mutex> lock(dest->pending_mu);
        dest->pending_fds.push_back(fd);
      }
      dest->Wake();
    }
  }
  // (unreachable)
}

void TcpServer::AdoptPending(Loop* loop) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(loop->pending_mu);
    fds.swap(loop->pending_fds);
  }
  for (int fd : fds) {
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      counters_->conns_active.fetch_sub(1, std::memory_order_relaxed);
      counters_->conns_closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->loop = loop;
    conn->epoll_fd = loop->epoll_fd;
    conn->wake_fd = loop->wake_fd;
    conn->counters = counters_;
    conn->write_high_water = options_.write_high_water;
    conn->max_pipeline = options_.max_pipeline;
    conn->fd = fd;
    conn->last_active_ns.store(NowNs(), std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = conn->EventMaskLocked();
    ev.data.ptr = conn.get();
    if (epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      counters_->conns_active.fetch_sub(1, std::memory_order_relaxed);
      counters_->conns_closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    loop->conns.emplace(conn.get(), conn);
  }
}

bool TcpServer::HandleReadable(Loop* loop, const std::shared_ptr<Conn>& conn,
                               bool may_run_here) {
  if (stopping_.load(std::memory_order_acquire)) return false;
  // The last whole frame read so far, held back until the socket is
  // drained: only the frame that ends the read may run inline.
  std::string held;
  std::string* hold = may_run_here ? &held : nullptr;
  char buf[kReadChunk];
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->closed || conn->read_paused) break;
    }
    ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      counters_->rx_bytes.fetch_add(r, std::memory_order_relaxed);
      conn->last_active_ns.store(NowNs(), std::memory_order_relaxed);
      conn->in_buf.append(buf, static_cast<size_t>(r));
      if (!ParseFrames(loop, conn, hold)) return false;  // connection closed
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF (the peer closed its half: nothing more can arrive) or a hard
    // error. A frame that arrived before it still runs, as every earlier
    // one did.
    if (!held.empty()) DispatchFrame(conn, std::move(held));
    CloseConn(loop, conn);
    return false;
  }
  if (conn->in_buf.size() > conn->in_off) {
    counters_->partial_reads.fetch_add(1, std::memory_order_relaxed);
  }
  if (held.empty()) return false;
  return RunLastFrame(loop, conn, std::move(held));
}

bool TcpServer::RunLastFrame(Loop* loop, const std::shared_ptr<Conn>& conn,
                             std::string frame) {
  if (!loop->standby_parked.load()) {
    DispatchFrame(conn, std::move(frame));
    return false;
  }
  HandOff hand_off(loop, conn);
  ScopedBlockHook scope(&hand_off);
  DispatchFrame(conn, std::move(frame), /*run_here=*/true);
  return hand_off.fired();
}

bool TcpServer::ParseFrames(Loop* loop, const std::shared_ptr<Conn>& conn,
                            std::string* held) {
  for (;;) {
    std::string_view rest(conn->in_buf.data() + conn->in_off,
                          conn->in_buf.size() - conn->in_off);
    if (rest.empty()) break;
    size_t frame_size = 0;
    service::wire::FramePeek peek =
        service::wire::PeekFrame(rest, &frame_size);
    if (peek == service::wire::FramePeek::kNeedMore) break;
    if (peek == service::wire::FramePeek::kCorrupt) {
      // Frame sync is unrecoverable: there is no way to locate the next
      // frame boundary in a stream whose header lies. Drop only this
      // connection; siblings are untouched.
      counters_->decode_closes.fetch_add(1, std::memory_order_relaxed);
      if (held != nullptr && !held->empty()) {
        DispatchFrame(conn, std::move(*held));
      }
      CloseConn(loop, conn);
      return false;
    }
    std::string frame = conn->in_buf.substr(conn->in_off, frame_size);
    conn->in_off += frame_size;
    if (held == nullptr) {
      DispatchFrame(conn, std::move(frame));
    } else {
      if (!held->empty()) DispatchFrame(conn, std::move(*held));
      *held = std::move(frame);
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->read_paused) break;
    }
  }
  if (conn->in_off == conn->in_buf.size()) {
    conn->in_buf.clear();
    conn->in_off = 0;
  } else if (conn->in_off > kCompactThreshold) {
    conn->in_buf.erase(0, conn->in_off);
    conn->in_off = 0;
  }
  return true;
}

void TcpServer::DispatchFrame(const std::shared_ptr<Conn>& conn,
                              std::string frame, bool run_here) {
  uint64_t seq = conn->next_dispatch_seq++;
  counters_->frames_in.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->in_flight += 1;
  }
  // The service may answer on this thread (inline commands, decode errors,
  // admission rejection), and CompleteResponse re-locks conn->mu — so no
  // lock may be held here. With run_here the loop may have been handed
  // over by the time the call returns: from here on only conn->mu state
  // may be touched.
  auto done = [self = conn, seq](std::string response) {
    CompleteResponse(self, seq, std::move(response));
  };
  if (run_here) {
    service_->CallInline(std::move(frame), std::move(done));
  } else {
    service_->CallAsync(std::move(frame), std::move(done));
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  if (!conn->closed && !conn->read_paused &&
      conn->in_flight >= conn->max_pipeline) {
    conn->read_paused = true;
    conn->counters->read_pauses.fetch_add(1, std::memory_order_relaxed);
    conn->UpdateEventsLocked();
  }
}

void TcpServer::CompleteResponse(const std::shared_ptr<Conn>& conn,
                                 uint64_t seq, std::string response) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->in_flight > 0) conn->in_flight -= 1;
  if (conn->closed) return;  // late completion of a force-closed connection
  conn->pending.emplace(seq, std::move(response));
  // Release every response whose turn has come — responses leave in
  // request order no matter which worker finished first.
  for (auto it = conn->pending.find(conn->next_release_seq);
       it != conn->pending.end();
       it = conn->pending.find(conn->next_release_seq)) {
    conn->out_buf += it->second;
    conn->pending.erase(it);
    conn->next_release_seq += 1;
    conn->counters->frames_out.fetch_add(1, std::memory_order_relaxed);
  }
  conn->last_active_ns.store(NowNs(), std::memory_order_relaxed);
  conn->FlushLocked();
  if (conn->closed || conn->doomed) return;
  if (conn->out_buf.size() - conn->out_off > conn->write_high_water) {
    // Slow reader: the peer is not draining its responses. Cutting the
    // connection bounds server memory; the client sees a reset and its
    // retry policy decides what to do.
    conn->counters->slow_reader_closes.fetch_add(1, std::memory_order_relaxed);
    conn->DoomLocked();
    return;
  }
  if (conn->read_paused && conn->in_flight <= conn->max_pipeline / 2) {
    conn->read_paused = false;
    conn->UpdateEventsLocked();  // MOD re-arms: buffered bytes re-fire
    conn->resume_parse = true;   // and already-read bytes re-parse
    conn->WakeLoopLocked();
  }
}

void TcpServer::CloseConn(Loop* loop, const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->closed) {
      conn->closed = true;
      epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
      ::close(conn->fd);
      conn->fd = -1;
      conn->pending.clear();
      conn->out_buf.clear();
      conn->out_off = 0;
      counters_->conns_active.fetch_sub(1, std::memory_order_relaxed);
      counters_->conns_closed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  loop->graveyard.push_back(conn);
  loop->conns.erase(conn.get());
}

void TcpServer::ServiceAttention(Loop* loop) {
  std::vector<std::shared_ptr<Conn>> snapshot;
  snapshot.reserve(loop->conns.size());
  for (auto& [ptr, conn] : loop->conns) {
    (void)ptr;
    snapshot.push_back(conn);
  }
  for (auto& conn : snapshot) {
    bool doom = false;
    bool resume = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      doom = conn->doomed;
      resume = conn->resume_parse;
      conn->resume_parse = false;
    }
    if (doom) {
      CloseConn(loop, conn);
    } else if (resume) {
      // Everything goes to the pool here: a hand-over in mid-sweep would
      // strand the rest of the snapshot.
      if (!ParseFrames(loop, conn, nullptr)) continue;
      (void)HandleReadable(loop, conn, /*may_run_here=*/false);
    }
  }
}

void TcpServer::SweepIdle(Loop* loop) {
  if (options_.idle_timeout_ns < 0) return;
  int64_t now = NowNs();
  std::vector<std::shared_ptr<Conn>> idle;
  for (auto& [ptr, conn] : loop->conns) {
    (void)ptr;
    if (now - conn->last_active_ns.load(std::memory_order_relaxed) <
        options_.idle_timeout_ns) {
      continue;
    }
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->in_flight == 0 && conn->out_off == conn->out_buf.size()) {
      idle.push_back(conn);
    }
  }
  for (auto& conn : idle) {
    counters_->idle_closes.fetch_add(1, std::memory_order_relaxed);
    CloseConn(loop, conn);
  }
}

void TcpServer::DrainForShutdown(Loop* loop) {
  bool force = NowNs() >= drain_deadline_ns_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<Conn>> closable;
  for (auto& [ptr, conn] : loop->conns) {
    (void)ptr;
    std::lock_guard<std::mutex> lock(conn->mu);
    if (force ||
        (conn->in_flight == 0 && conn->pending.empty() &&
         conn->out_off == conn->out_buf.size())) {
      closable.push_back(conn);
    } else {
      conn->draining_close = true;  // FlushLocked dooms it once empty
    }
  }
  for (auto& conn : closable) CloseConn(loop, conn);
}

}  // namespace mix::net::tcp
