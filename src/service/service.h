// MediatorService ("mixd"): the MIX mediator as a concurrent multi-session
// server.
//
// The service accepts framed requests (service/wire.h), admits them into a
// bounded executor (service/executor.h) keyed by session — commands of one
// session run in order, distinct sessions run in parallel — and answers
// with framed responses. A caller that holds a thread (CallInline,
// RoundTrip) runs a session command itself when the session's lane is
// idle, skipping the hop to a worker. Every path a peer can influence
// degrades to an error *frame*, never a crash: malformed frames, unknown
// sessions, expired deadlines and overload all come back as kError with the
// corresponding Status code, and the session (when one exists) stays
// usable.
//
// Request lifecycle:
//   bytes in -> decode (Status-based) -> admit (kUnavailable if the queue
//   is full) -> dequeue (kDeadlineExceeded if it waited too long) ->
//   execute against the session's virtual document -> encode -> bytes out.
// The service counts the frames crossing its boundary (frames_in/out); a
// real transport hosting it reports its own socket counters (net{...}).
#ifndef MIX_SERVICE_SERVICE_H_
#define MIX_SERVICE_SERVICE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "net/fault.h"
#include "service/executor.h"
#include "service/metrics.h"
#include "service/session.h"
#include "service/wire.h"

namespace mix::service {

class MediatorService : public wire::FrameTransport {
 public:
  struct Options {
    /// Name this instance reports in its metrics snapshot ("" outside a
    /// fleet) — how a router tells the members of a mixd fleet apart.
    std::string backend_id;
    int workers = 4;
    size_t queue_capacity = 256;
    size_t max_sessions = 1024;
    /// Idle session TTL in ns (< 0: never evict).
    int64_t session_idle_ttl_ns = -1;
    /// Byte budget of the shared source-fragment cache (DESIGN.md §4);
    /// 0 disables it — sessions always exchange with their wrappers.
    int64_t source_cache_bytes = 0;
    /// Compiled-plan cache capacity in entries; 0 disables (every Open
    /// compiles). On by default: plans are tiny and pure. Every compiled
    /// plan is optimized against the source capabilities the environment
    /// declares: shared sources their registered SourceCapability, wrapper
    /// sources their WrapperOptions::capability — with pushdown honored
    /// only for sources registered on the whole-database "db" view (a
    /// source registered on a query view keeps plain LXP: its document
    /// shape does not match the relational catalog).
    int64_t plan_cache_entries = 64;
    /// Byte budget of the answer-view cache (DESIGN.md §4 "Answer-view
    /// cache"); 0 disables it — every Open builds a live session. This is
    /// the E16 A/B knob.
    int64_t answer_view_cache_bytes = 0;
  };

  /// `env` is not owned and must outlive the service; it must not be
  /// mutated once serving starts.
  MediatorService(const SessionEnvironment* env, Options options);
  ~MediatorService() override;

  /// Asynchronous entry point: decodes, admits, and eventually invokes
  /// `done` with the encoded response frame — on a worker thread for
  /// admitted requests, inline for requests refused at the door (decode
  /// errors, overload) and for kMetrics. `done` is invoked exactly once.
  void CallAsync(std::string request_bytes,
                 std::function<void(std::string response_bytes)> done);

  /// CallAsync for a caller that holds a thread it is willing to lend: a
  /// session command (kRoot, d/r/f/σ, kNthChild, kDownAll, kNextSiblings,
  /// kFetchSubtree, kClose) whose session lane is idle runs to completion
  /// on the calling thread, and `done` has fired by the time this returns.
  /// Everything else takes the CallAsync path. A command that reaches a
  /// source blocks the calling thread; a caller that must not block
  /// installs a BlockHook (core/block_hook.h) first.
  void CallInline(std::string request_bytes,
                  std::function<void(std::string response_bytes)> done);

  /// Synchronous FrameTransport: CallInline + wait, so a session command
  /// whose lane is idle runs on the caller's thread. Safe to call from many
  /// client threads concurrently.
  Result<std::string> RoundTrip(const std::string& request_bytes) override;

  /// Native async FrameTransport: routes through CallAsync, so `done` fires
  /// on a worker thread once the request executes (inline for requests
  /// answered at the door). The service always answers — server-side errors
  /// arrive as kError frames inside an OK Result.
  void RoundTripAsync(std::string request_bytes,
                      wire::FrameTransport::AsyncDone done) override {
    CallAsync(std::move(request_bytes),
              [done = std::move(done)](std::string response_bytes) {
                done(Result<std::string>(std::move(response_bytes)));
              });
  }

  ServiceMetricsSnapshot Metrics() const;

  /// Direct registry access for tests/tools (eviction sweeps, live ids).
  SessionRegistry& registry() { return registry_; }

  /// The shared source-fragment cache (valid whether or not it is enabled;
  /// disabled caches report zero traffic).
  buffer::SourceCache& source_cache() { return source_cache_; }

  /// The compiled-plan cache (valid whether or not it is enabled).
  mediator::PlanCache& plan_cache() { return plan_cache_; }

  /// Installs (or clears, with nullptr) the provider of the snapshot's
  /// net{...} section. A real network transport hosting this service (e.g.
  /// net::tcp::TcpServer) registers itself here so remote peers see
  /// listener/connection counters through the ordinary kMetrics frame; the
  /// transport must clear the hook before it is destroyed.
  void SetNetStatsProvider(std::function<NetStats()> provider) {
    std::lock_guard<std::mutex> lock(net_stats_mu_);
    net_stats_provider_ = std::move(provider);
  }

  /// Declares `source` (an environment source name) changed: bumps its
  /// generation in the one registry every cache tier follows, so sessions
  /// opened from now on re-fetch from the live wrapper and no cached
  /// answer view derived from the old generation serves them. In-flight
  /// sessions keep their pinned generation — the same per-session
  /// consistency the E9 freshness semantics define.
  void InvalidateSource(const std::string& source) { generations_.Bump(source); }

 private:
  /// CallAsync and CallInline; `run_here` allows the inline path.
  void Dispatch(std::string request_bytes,
                std::function<void(std::string response_bytes)> done,
                bool run_here);

  /// Runs a decoded request against its session and produces the response.
  /// `deadline` is the executor deadline; its remaining budget becomes the
  /// session's per-command fill deadline (retry backoff cannot outlive it).
  wire::Frame Execute(const wire::Frame& request,
                      std::chrono::steady_clock::time_point deadline);
  wire::Frame ExecuteOpen(const wire::Frame& request);
  wire::Frame ExecuteLxp(const wire::Frame& request);
  wire::Frame ExecuteNavigation(const wire::Frame& request, Session& session);

  /// Serialization keys must not collide between sessions and exported
  /// wrappers; wrappers use the top bit.
  static constexpr uint64_t kWrapperKeyBase = uint64_t{1} << 63;
  /// Opens are admitted under the id they will receive, so concurrent opens
  /// parallelize while each open still occupies one queue slot.
  uint64_t KeyForRequest(const wire::Frame& request, Status* error) const;

  void FinishRequest(bool is_error);

  const SessionEnvironment* env_;
  Options options_;
  /// Declared before registry_: sessions hold a pointer to these counters,
  /// so they must outlive every session the registry can destroy.
  net::FaultCounters fault_counters_;
  /// Also before registry_ (session buffers point into the caches, session
  /// pins into the generation registry, which the caches follow).
  GenerationRegistry generations_;
  buffer::SourceCache source_cache_;
  mediator::PlanCache plan_cache_;
  /// Before registry_: view-served sessions hold snapshot shared_ptrs, but
  /// the registry's Open path also reads the cache directly.
  mediator::AnswerViewCache answer_view_cache_;
  SessionRegistry registry_;

  mutable std::mutex net_stats_mu_;
  std::function<NetStats()> net_stats_provider_;

  mutable std::mutex metrics_mu_;
  int64_t frames_in_ = 0;
  int64_t frames_out_ = 0;
  int64_t requests_ok_ = 0;
  int64_t requests_error_ = 0;
  LatencyHistogram latency_;

  /// Exported-wrapper serialization keys (uri -> key). Built once in the
  /// constructor from env; const while serving.
  std::map<std::string, uint64_t> wrapper_keys_;

  /// Executor last: destroyed first, so draining tasks can still touch the
  /// registry and metrics above.
  Executor executor_;
};

}  // namespace mix::service

#endif  // MIX_SERVICE_SERVICE_H_
