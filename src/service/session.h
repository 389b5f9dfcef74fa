// Multi-session state for the mixd mediator server.
//
// A *session* is one client's dialogue with one virtual answer document:
// Open(xmas_text) compiles the query (mediator::CompileXmas), instantiates
// the tree of lazy mediators, and — for every wrapper-backed source — gives
// the session its OWN BufferComponent, simulated clock, and LXP channel, so
// concurrent sessions never share mutable navigation state. Shared sources
// registered as plain Navigables must be safe for concurrent reads (a
// DocNavigable over an immutable document is; see DESIGN.md §4 on the Atom
// and node-id thread-safety guarantees that make cross-thread ids work).
//
// Sessions are ref-counted: the registry holds one reference, and each
// in-flight request holds another for the duration of its execution, so an
// eviction or Close racing with a running command (on another session's
// worker) can never destroy state mid-navigation — the session just
// becomes unreachable and is reclaimed when its last command returns.
//
// Eviction: sessions idle longer than the TTL are closed by the sweep that
// runs on every Open (and on demand via EvictIdle) — the paper's mediator
// cannot know when a client drops a handle, so, exactly like the Skolem
// node-ids, lifetime is bounded by policy rather than by client courtesy.
#ifndef MIX_SERVICE_SESSION_H_
#define MIX_SERVICE_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "buffer/buffer.h"
#include "buffer/lxp.h"
#include "buffer/source_cache.h"
#include "core/navigable.h"
#include "core/status.h"
#include "mediator/answer_view_cache.h"
#include "mediator/instantiate.h"
#include "mediator/ir.h"
#include "mediator/passes/pass.h"
#include "mediator/plan_cache.h"
#include "net/fault.h"
#include "net/sim_net.h"
#include "service/metrics.h"

namespace mix::service {

/// The sources a service instance serves its sessions from. Registered
/// once, before the service starts; const thereafter (shared across worker
/// threads without locking).
class SessionEnvironment {
 public:
  /// A source every session navigates directly. `nav` must tolerate
  /// concurrent navigation calls from multiple threads.
  void RegisterShared(std::string name, Navigable* nav);
  /// Same, declaring the source's optimizer capability (e.g. `sigma` for a
  /// source whose SelectSibling answers natively — stacked mediators, doc
  /// navigables). Pushdown is meaningless for a shared navigable and is
  /// ignored; wrapper-backed sources advertise theirs via
  /// LxpWrapper::Capability() instead.
  void RegisterShared(std::string name, Navigable* nav,
                      mediator::SourceCapability capability);

  /// A wrapper-backed source: every session that opens gets its own wrapper
  /// instance (from `factory`), its own BufferComponent and its own
  /// simulated channel/clock — the per-session LXP state of the paper's
  /// Fig. 7, multiplied by the number of clients.
  struct WrapperOptions {
    net::ChannelOptions channel;
    /// Retry discipline for this source's fills (default: no retry).
    net::RetryOptions retry;
    /// Fault injection applied to every session's wrapper instance for this
    /// source (default: none). Each session derives its own injection seed
    /// from `fault_seed` and the session id, so schedules are deterministic
    /// per session yet independent across sessions.
    net::FaultSpec fault;
    uint64_t fault_seed = 0x6d697864'666c7421ull;
    /// Let sessions answer this source's fills from the service's shared
    /// SourceCache (effective only when the service has one). Off for a
    /// source whose wrapper is not deterministic per (uri, hole id).
    bool cache_fills = true;
    /// Capability advertised to the plan optimizer (σ, predicate pushdown,
    /// relational catalog) — typically `wrapper->Capability()` of an
    /// instance the registrant already has. Declared here rather than
    /// probed from `factory` so registration never constructs a wrapper
    /// (factories may count invocations or script per-session behavior).
    /// Default: no capability, optimizer passes that need one stay off.
    buffer::PushdownCapability capability;
    /// Readahead window per session buffer: up to this many flights, each
    /// carrying up to this many queued holes and asking for up to this many
    /// fills, continuations included
    /// (BufferComponent::Options::max_in_flight); 0 = demand-only, the
    /// byte-identical baseline.
    int max_in_flight = 0;
  };
  void RegisterWrapperFactory(
      std::string name,
      std::function<std::unique_ptr<buffer::LxpWrapper>()> factory,
      std::string uri, WrapperOptions options);
  void RegisterWrapperFactory(
      std::string name,
      std::function<std::unique_ptr<buffer::LxpWrapper>()> factory,
      std::string uri) {
    RegisterWrapperFactory(std::move(name), std::move(factory), std::move(uri),
                           WrapperOptions());
  }

  /// Exports `wrapper` for remote LXP serving (wire kLxpGetRoot/kLxpFillMany
  /// frames address it by `uri`; the service calls its TryGetRoot/
  /// TryFillMany faces and answers a failure with an error frame). By
  /// default the service serializes access per exported wrapper, so
  /// `wrapper` itself needs no locking. `concurrent = true` opts out of
  /// that serialization: pipelined exchanges for the same uri then run on
  /// multiple workers at once (a client's async readahead window becomes
  /// real server-side overlap) — the wrapper must be internally
  /// thread-safe.
  void ExportWrapper(std::string uri, buffer::LxpWrapper* wrapper,
                     bool concurrent = false);
  bool exported_concurrent(const std::string& uri) const {
    return exported_concurrent_.count(uri) > 0;
  }

  struct SharedSource {
    std::string name;
    Navigable* nav;
    mediator::SourceCapability capability;
  };
  struct WrapperSource {
    std::string name;
    std::function<std::unique_ptr<buffer::LxpWrapper>()> factory;
    std::string uri;
    WrapperOptions options;
  };
  const std::vector<SharedSource>& shared() const { return shared_; }
  const std::vector<WrapperSource>& wrappers() const { return wrappers_; }
  const std::map<std::string, buffer::LxpWrapper*>& exported() const {
    return exported_;
  }

 private:
  std::vector<SharedSource> shared_;
  std::vector<WrapperSource> wrappers_;
  std::map<std::string, buffer::LxpWrapper*> exported_;
  std::set<std::string> exported_concurrent_;
};

/// One open session. Construction happens on a worker (plan compilation is
/// part of the Open request); navigation state is only touched under the
/// session's executor lane — on a worker, or on a thread that claimed the
/// idle lane to run a command inline (Executor::TryRunInline).
class Session {
 public:
  /// Destroying the wrappers may wait on their sources (a remote wrapper
  /// joins its transport's dispatch thread), so the destructor calls
  /// NotifyBeforeBlock() first.
  ~Session();

  /// `fault_counters` (optional) aggregates every source buffer's fault/
  /// retry/degradation counts service-wide. `plan` is the compiled query —
  /// shared and immutable, typically from a PlanCache; the session keeps a
  /// reference for its lifetime. `source_cache` (optional) is the shared
  /// fragment cache every cache_fills source consults; each source's
  /// generation is pinned here, at build time.
  /// `view_snapshot` (optional) marks an answer-view-served session: `plan`
  /// is then the rewritten serving plan over the snapshot, which is pinned
  /// for the session's lifetime and registered under
  /// mediator::kAnswerViewSourceName. No wrappers, buffers, channels or
  /// clocks are built at all — the whole dialogue navigates the immutable
  /// snapshot, with zero wrapper exchanges.
  static Result<std::shared_ptr<Session>> Build(
      uint64_t id, const SessionEnvironment& env,
      std::shared_ptr<const mediator::PlanNode> plan,
      net::FaultCounters* fault_counters = nullptr,
      buffer::SourceCache* source_cache = nullptr,
      std::shared_ptr<const mediator::AnswerSnapshot> view_snapshot = nullptr);

  /// Convenience overload: compiles `xmas_text` directly (no plan cache).
  static Result<std::shared_ptr<Session>> Build(
      uint64_t id, const SessionEnvironment& env, const std::string& xmas_text,
      net::FaultCounters* fault_counters = nullptr,
      buffer::SourceCache* source_cache = nullptr);

  uint64_t id() const { return id_; }
  Navigable* document() { return document_; }
  SessionMetrics& metrics() { return metrics_; }

  /// Per-command deadline plumbing: the executor's remaining real budget
  /// (ns; < 0 = none) becomes each source buffer's virtual fill deadline —
  /// 1 real ns = 1 simulated ns — so retry backoff can never outlive the
  /// request that is paying for it.
  void BeginCommand(int64_t budget_ns);
  void EndCommand();

  /// Drains the first error latched by any source buffer during the last
  /// command (OK when navigation was clean) — the typed face of degraded
  /// answers, reported per command by the service layer.
  Status TakeSourceStatus();

  /// Idempotency token of the Open that created this session ("" = none);
  /// the registry indexes live sessions by it so a replayed Open (a
  /// failover re-issue whose response was lost) re-attaches instead of
  /// leaking a duplicate session.
  const std::string& open_token() const { return open_token_; }
  void set_open_token(std::string token) { open_token_ = std::move(token); }

  /// Steady-clock ns of the last dispatched command (atomic: touched by the
  /// dispatcher, read by the evicting sweep).
  int64_t last_active_ns() const {
    return last_active_ns_.load(std::memory_order_relaxed);
  }
  void Touch(int64_t now_ns) {
    last_active_ns_.store(now_ns, std::memory_order_relaxed);
  }

  /// Folds the per-source buffer/channel counters into metrics() — called
  /// under the session's serialization before a metrics read.
  void RefreshSourceMetrics();

  // --- node-id boundary validation (service/service.cc) ---
  //
  // Answer-document node ids embed plan-instance-private state (operator
  // fw-ids wrap a ValueSpace owner stamp and navigable handles), and the
  // navigable layer CHECK-fails on ids it never minted — an internal-bug
  // trap that a remote peer must not be able to spring with a stale or
  // fabricated frame. The service therefore accepts an inbound node id
  // only if this session previously issued it; everything else gets a
  // typed kInvalidArgument frame. Touched only under the executor's
  // per-session serialization.

  /// True when `id` was handed out by a response of this session.
  bool KnowsNode(const NodeId& id) const {
    return issued_nodes_.find(id) != issued_nodes_.end();
  }
  void RememberNode(const NodeId& id) {
    if (id.valid()) issued_nodes_.insert(id);
  }

  // --- answer-view cache plumbing (service/service.cc) ---

  /// True when this session is served from a cached answer snapshot.
  bool served_from_view() const { return view_snapshot_ != nullptr; }

  /// Records the descriptor (and the answer-view generations pinned at
  /// open) under which this session's answer may later be published.
  void SetPublishableShape(mediator::ViewShape shape,
                           std::map<std::string, int64_t> generations) {
    publish_shape_ = std::move(shape);
    publish_generations_ = std::move(generations);
  }

  /// True when a full-depth root export of this session is publishable:
  /// it has a valid descriptor, is not itself view-served (no derived
  /// views of views), and has not published yet. Touched only under the
  /// executor's per-session serialization.
  bool CanPublishView() const {
    return publish_shape_.valid && view_snapshot_ == nullptr && !published_;
  }
  void MarkViewPublished() { published_ = true; }
  const mediator::ViewShape& publish_shape() const { return publish_shape_; }
  const std::map<std::string, int64_t>& publish_generations() const {
    return publish_generations_;
  }

 private:
  Session() = default;

  uint64_t id_ = 0;
  // Order matters for destruction: the mediator navigates buffers, buffers
  // call wrappers and charge channels; members are destroyed bottom-up.
  std::vector<std::unique_ptr<net::SimClock>> clocks_;
  std::vector<std::unique_ptr<net::Channel>> channels_;
  std::vector<std::unique_ptr<buffer::LxpWrapper>> wrappers_;
  std::vector<std::unique_ptr<buffer::BufferComponent>> buffers_;
  /// The (possibly cache-shared) compiled plan; the mediator tree holds
  /// references into it, so it must outlive mediator_ (declared before).
  std::shared_ptr<const mediator::PlanNode> plan_;
  /// Pinned answer snapshot for view-served sessions (the mediator
  /// navigates into it, so it too must outlive mediator_).
  std::shared_ptr<const mediator::AnswerSnapshot> view_snapshot_;
  std::unique_ptr<mediator::LazyMediator> mediator_;
  Navigable* document_ = nullptr;
  SessionMetrics metrics_;
  std::string open_token_;
  std::atomic<int64_t> last_active_ns_{0};
  mediator::ViewShape publish_shape_;
  std::map<std::string, int64_t> publish_generations_;
  bool published_ = false;
  /// Every node id a response of this session has handed out (the client's
  /// working set — bounded by what it actually navigated).
  std::unordered_set<NodeId, NodeIdHash> issued_nodes_;
};

/// Id → session map with TTL eviction. Thread-safe; lookups hand out
/// shared_ptrs (see file comment for the lifetime argument).
class SessionRegistry {
 public:
  struct Options {
    size_t max_sessions = 1024;
    /// Idle TTL in steady-clock ns; < 0 disables eviction.
    int64_t idle_ttl_ns = -1;
    /// Service-wide fault counters handed to every session built.
    net::FaultCounters* fault_counters = nullptr;
    /// Shared source-fragment cache handed to every session built
    /// (nullptr: sessions always go to their wrappers).
    buffer::SourceCache* source_cache = nullptr;
    /// Compiled-plan cache consulted before CompileXmas on Open (nullptr:
    /// every Open compiles). Both caches are used OUTSIDE the registry
    /// lock, so a slow compile or fill never stalls unrelated sessions.
    mediator::PlanCache* plan_cache = nullptr;
    /// Optimizer configuration for the no-plan-cache path. When plan_cache
    /// is set its Options::optimizer governs and this field is ignored.
    mediator::passes::OptimizerOptions optimizer;
    /// Answer-view cache consulted on Open for subsumption-based serving
    /// (nullptr or disabled: every Open builds a live session). Used
    /// OUTSIDE the registry lock, like the other caches.
    mediator::AnswerViewCache* answer_view_cache = nullptr;
  };

  SessionRegistry(const SessionEnvironment* env, Options options)
      : env_(env), options_(options) {}

  /// Compiles and instantiates; runs the idle sweep first (hint-gated —
  /// a full-registry scan only happens when some session could actually
  /// have expired) so abandoned sessions make room. kUnavailable when the
  /// session table is full.
  ///
  /// `idempotency_token` ("" = none) makes the Open replay-safe: when a
  /// live session was already opened under the same token, its id is
  /// returned and no new session is built. A router failing over a lost
  /// Open response re-issues the frame with the original token, so the
  /// backend that DID serve the first attempt hands back the same session
  /// instead of leaking a duplicate until TTL eviction.
  Result<uint64_t> Open(const std::string& xmas_text,
                        const std::string& idempotency_token = "");

  /// kNotFound for unknown (or already closed/evicted) ids.
  Status Close(uint64_t id);

  /// nullptr when unknown; touches the session's idle clock.
  std::shared_ptr<Session> Find(uint64_t id);

  /// Evicts sessions idle past the TTL; returns how many.
  size_t EvictIdle();

  /// Cheap sweep hook for the command/execute path: runs EvictIdle only
  /// when some session could actually have expired (lock-free early-out on
  /// the cached next-expiry hint). Without this, a service that stops
  /// seeing Opens never reclaims abandoned sessions. `keep_id` (0 = none)
  /// names the session serving the current command — it was just touched,
  /// but with a TTL shorter than clock granularity even "just touched" can
  /// look expired, and a session must never evict itself mid-dialogue.
  size_t MaybeEvictIdle(uint64_t keep_id = 0);

  struct Counters {
    int64_t open = 0;
    int64_t opened = 0;
    int64_t closed = 0;
    int64_t evicted = 0;
    /// Full-registry eviction scans actually performed (each is O(open
    /// sessions) under the registry lock). The expiry hint exists to keep
    /// this near zero while nothing is expiring — the fleet bench opens
    /// thousands of sessions and must not pay a scan per Open.
    int64_t sweep_scans = 0;
    /// Opens answered from a live session via idempotency token.
    int64_t open_replays = 0;
  };
  Counters counters() const;

  /// Collects a snapshot of every live session's id (diagnostics/tests).
  std::vector<uint64_t> LiveIds() const;

 private:
  static int64_t NowNs();

  size_t EvictIdleExcept(uint64_t keep_id);

  const SessionEnvironment* env_;
  Options options_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  /// Live idempotency tokens -> session id (entries removed on close and
  /// eviction; sessions opened without a token never enter this map).
  std::unordered_map<std::string, uint64_t> tokens_;
  uint64_t next_id_ = 1;
  Counters counters_;
  /// Earliest steady-clock ns at which any session can expire (INT64_MAX
  /// when none can) — the MaybeEvictIdle early-out. Monotone-min updated on
  /// Open; recomputed exactly by each EvictIdle sweep.
  std::atomic<int64_t> next_expiry_hint_ns_{
      std::numeric_limits<int64_t>::max()};
};

}  // namespace mix::service

#endif  // MIX_SERVICE_SESSION_H_
