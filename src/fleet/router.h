// Fleet tier: a session router fronting N mixd instances.
//
// The paper's mediator is one process; the ROADMAP's north star is a fleet
// of them. This router is the distribution layer in between — the piece the
// Distributed XML-Query network spec (PAPERS.md, cs/0309022) calls the
// query-routing node, adapted to MIX's session model:
//
// * PLACEMENT — sessions are placed by bounded-load consistent hashing on
//   the canonical XMAS key (hash_ring.h): overlapping queries co-locate, so
//   the second client opening a view lands where the plan cache, the shared
//   source-fragment cache, and the answer-view cache are already warm. The
//   load bound (`bounded_load_factor`) keeps one hot query from pinning its
//   entire traffic to a single backend: once the home backend carries more
//   than factor × the fair share of open sessions, placement spills to the
//   next backend in the key's preference order.
//
// * HEALTH — per-backend circuit breakers (health.h). Failures observed by
//   any routed command eject a backend after `failure_threshold`
//   consecutive failures; ejected backends receive a single half-open probe
//   per interval and are readmitted on success.
//
// * FAILOVER — what makes re-placement *correct* is the paper's
//   navigation-driven evaluation itself: every node the client holds was
//   reached by a deterministic command path from the document root, and the
//   router saw every one of those commands. Node-id VALUES are not portable
//   (operator fw-ids embed a plan-instance owner stamp; a fresh session
//   mints fresh ids, and backends reject foreign ones), so the router
//   records, per session, the derivation path of every id it returned —
//   root, then the exact Down/Right/NthChild/... steps — and on rebind
//   re-derives an old id by replaying its path on the new session. Replay
//   is lazy (first command that touches an id) and memoized, so steady
//   state costs one map lookup per command. Because answers are
//   deterministic functions of the sources, the re-derived node is the
//   same node, and navigation continues byte-identically. The re-issue
//   loop is the PR 4 net::RetryPolicy, so failover inherits its
//   bounded-attempt discipline. Lost `Open` *responses* are deduplicated by
//   the backend via the idempotency token the router attaches (kOpen.text2,
//   session.h) — replaying an Open whose answer was lost re-attaches to the
//   live session instead of leaking one. A re-Open on a *different* backend
//   intentionally mints a fresh token: it is a new session (the caveat:
//   effects private to the dead backend's session, like its answer-view
//   publish credit, do not transfer).
//
// The seam is wire::FrameTransport, one level below FramedDocument: a
// RoutedSessionTransport decodes each request, places/remaps/forwards it,
// and hands back an encoded response. Every existing client facade
// (FramedDocument, FramedLxpWrapper) therefore works against a fleet
// unchanged — exactly how the TCP transport slotted in under them in PR 8.
#ifndef MIX_FLEET_ROUTER_H_
#define MIX_FLEET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/node_id.h"

#include "client/framed_document.h"
#include "core/status.h"
#include "fleet/hash_ring.h"
#include "fleet/health.h"
#include "net/fault.h"
#include "service/wire.h"

namespace mix::fleet {

/// Non-owning FrameTransport view — lets tests and in-process fleets hand
/// `MediatorService*` (itself a FrameTransport) to transport factories that
/// must return owned objects.
class BorrowedFrameTransport : public service::wire::FrameTransport {
 public:
  explicit BorrowedFrameTransport(service::wire::FrameTransport* inner)
      : inner_(inner) {}
  Result<std::string> RoundTrip(const std::string& request_bytes) override {
    return inner_->RoundTrip(request_bytes);
  }

 private:
  service::wire::FrameTransport* inner_;
};

/// Router-wide counters (plain-value snapshot).
struct FleetStats {
  int64_t opens_routed = 0;    ///< sessions successfully placed
  int64_t open_spills = 0;     ///< open candidates skipped (health or load)
  int64_t sheds = 0;           ///< requests refused: no admittable backend
  int64_t failovers = 0;       ///< sessions rebound to another backend
  int64_t reopens = 0;         ///< re-Open frames issued while rebinding
  int64_t commands = 0;        ///< session commands forwarded
  int64_t path_replays = 0;    ///< node ids re-derived by path replay
  std::vector<int64_t> sessions_per_backend;
  HealthTracker::Stats health;

  std::string ToString() const;
};

class SessionRouter {
 public:
  struct Backend {
    /// Stable name — the ring position generator AND the operator-facing
    /// id (metrics attribution), so renaming a backend re-shards it.
    std::string name;
    /// Mints a fresh connection to this backend. Called per routed client
    /// transport (connections are cheap; a shared one would serialize
    /// unrelated clients on its stream mutex).
    std::function<std::unique_ptr<service::wire::FrameTransport>()> connect;
  };

  struct Options {
    /// Ring points per backend (placement smoothness).
    int virtual_nodes = 64;
    /// Bounded-load spill threshold: a backend is placeable while its open
    /// sessions stay below max(min_load_cap, ceil(factor * (total + 1) /
    /// healthy backends)). Factor <= 1.0 degenerates toward least-loaded;
    /// large values toward pure consistent hashing.
    double bounded_load_factor = 1.25;
    /// Floor under the load cap. With few sessions the fair-share cap is so
    /// tight it would spill the SECOND session of a shared query off its
    /// cache-affine home; the floor lets small populations co-locate fully,
    /// and the factor takes over once loads reach it.
    int64_t min_load_cap = 8;
    HealthOptions health;
    /// Attempt bound for the per-command failover loop (max_attempts
    /// includes the first try; backoff waits are skipped — the transport's
    /// own latency paces the loop, matching FramedDocument's client
    /// retries). Defaults to 3 attempts: a failover router that never
    /// re-issues would only ever convert failures into errors. Set
    /// max_attempts = 1 to disable re-issues entirely.
    net::RetryOptions retry = DefaultRetry();

    static net::RetryOptions DefaultRetry() {
      net::RetryOptions r;
      r.max_attempts = 3;
      return r;
    }
  };

  SessionRouter(std::vector<Backend> backends, Options options);

  /// A fresh routed transport: one per client document/thread (the routed
  /// transport itself is single-stream, like the TCP transport under it).
  /// The router must outlive every transport it minted.
  std::unique_ptr<service::wire::FrameTransport> MakeTransport();

  /// Router-aware FramedDocument factory: MakeTransport + owning Open.
  /// `retry` (optional) installs client-side command retry ON TOP of the
  /// router's own failover loop — it re-drives commands the router had to
  /// shed while every backend was ejected.
  Result<std::unique_ptr<client::FramedDocument>> OpenDocument(
      const std::string& xmas_text, int64_t deadline_ns = 0);
  Result<std::unique_ptr<client::FramedDocument>> OpenDocument(
      const std::string& xmas_text, int64_t deadline_ns,
      const net::RetryOptions& retry);

  size_t backend_count() const { return backends_.size(); }
  const std::string& backend_name(size_t i) const { return backends_[i].name; }
  HealthTracker& health() { return health_; }
  const HashRing& ring() const { return ring_; }

  FleetStats stats() const;

 private:
  friend class RoutedSessionTransport;

  static int64_t NowNs();

  /// Bounded-load admission: may `backend` take one more session?
  bool LoadAdmits(size_t backend) const;
  void AddLoad(size_t backend, int64_t delta);

  std::vector<Backend> backends_;
  Options options_;
  HashRing ring_;
  HealthTracker health_;

  std::vector<std::unique_ptr<std::atomic<int64_t>>> load_;
  std::atomic<int64_t> total_load_{0};
  std::atomic<uint64_t> next_client_session_{1};
  std::atomic<uint64_t> next_token_{1};

  std::atomic<int64_t> opens_routed_{0};
  std::atomic<int64_t> open_spills_{0};
  std::atomic<int64_t> sheds_{0};
  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> reopens_{0};
  std::atomic<int64_t> commands_{0};
  std::atomic<int64_t> path_replays_{0};
};

/// The transport MakeTransport returns. Public only for its documentation:
/// use it through the FrameTransport interface.
///
/// Request handling:
///   kOpen       -> place on the ring (health + load filtered), attach an
///                  idempotency token, latch {client id -> backend, backend
///                  session id, open frame}; the client sees a router-minted
///                  session id, so ids never collide across backends.
///   session cmd -> remap to the backend session id and forward; on a
///                  retryable transport failure, eject-aware failover:
///                  re-Open on the next candidate and re-issue (RetryPolicy
///                  bounds the attempts). A backend-reported "unknown
///                  session" (TTL eviction, restart) is survived the same
///                  way, on the same backend first.
///   kClose      -> forward, then unbind and release the load slot.
///   kLxp*       -> stateless: routed by URI hash with the same
///                  health-aware candidate walk, no binding.
///   kMetrics    -> fan out to every healthy backend; the response text
///                  stacks the per-backend snapshots (each prefixed with
///                  its backend_id) and the router's own fleet{...} line.
///
/// Not thread-safe (single client stream, like TcpFrameTransport); mint one
/// per client thread.
class RoutedSessionTransport : public service::wire::FrameTransport {
 public:
  explicit RoutedSessionTransport(SessionRouter* router);
  ~RoutedSessionTransport() override;

  Result<std::string> RoundTrip(const std::string& request_bytes) override;

  /// Provenance steps stored over every bound session (one per link).
  size_t provenance_steps() const;

 private:
  /// One recorded navigation edge: the command that produced a node from
  /// its base node (`index` selects within a kNodeList response).
  struct Step {
    service::wire::MsgType op;
    int64_t number = 0;
    std::string text2;
    size_t index = 0;
  };

  /// How a node id was derived: `step` applied to `base` (an invalid base
  /// marks the document root, derived by kRoot).
  struct Link {
    NodeId base;
    Step step;
  };

  struct Binding {
    size_t backend;
    uint64_t backend_session;
    service::wire::Frame open_frame;  ///< replayable (token included)
    /// Provenance of every node id this session ever returned, as a parent
    /// link: the base id and the one step from it. Node-id values are
    /// private to the backend session that minted them, so these links —
    /// not the id bytes — are what survives a failover. One step per
    /// distinct id, so paging k siblings stores k steps, not a copied path
    /// per id.
    std::unordered_map<NodeId, Link, NodeIdHash> links;
    /// Client-held id -> equivalent id on the CURRENT backend session.
    /// Identity entries for ids minted this epoch; cleared on every
    /// re-open (same-backend revival or cross-backend rebind), then
    /// repopulated lazily by path replay.
    std::unordered_map<NodeId, NodeId, NodeIdHash> remap;
  };

  service::wire::FrameTransport* Conn(size_t backend);
  /// Re-derives `id` on the binding's current session: follows its links
  /// up to the nearest id already translated this epoch (or the root) and
  /// replays the steps down from there, memoizing each id it passes.
  Result<NodeId> DeriveByPath(Binding& bind, const NodeId& id);
  /// Maps a client-held id to the current epoch: memoized remap hit, else
  /// lazy path replay, else (untracked id) pass-through.
  Result<NodeId> TranslateNode(Binding& bind, const NodeId& id);
  /// Records the derivation of every node id in `response` (keyed off the
  /// ORIGINAL client-held base id in `request`).
  void RecordProvenance(Binding& bind, const service::wire::Frame& request,
                        const service::wire::Frame& response);
  /// Walks `preference`, health/load-filtering, and opens `open_frame`
  /// (token already attached) on the first backend that takes it. On
  /// success fills *backend/*backend_session. `counting_load` is false for
  /// rebind re-opens (the session already holds its load slot).
  Status PlaceOpen(const service::wire::Frame& open_frame,
                   const std::vector<size_t>& preference, bool counting_load,
                   size_t exclude, size_t* backend, uint64_t* backend_session);
  /// Moves `client_session` off its (just-failed) backend: re-Open the saved
  /// frame under a fresh token on the next admitted candidate, swap the
  /// binding and the load slot. No-op if no candidate takes it (the caller's
  /// retry loop surfaces the error instead).
  void Rebind(uint64_t client_session);

  Result<std::string> HandleOpen(service::wire::Frame request);
  Result<std::string> HandleSession(service::wire::Frame request);
  Result<std::string> HandleLxp(const service::wire::Frame& request);
  Result<std::string> HandleMetrics(const service::wire::Frame& request);

  SessionRouter* router_;
  std::vector<std::unique_ptr<service::wire::FrameTransport>> conns_;
  std::map<uint64_t, Binding> sessions_;  ///< client session id -> binding
};

}  // namespace mix::fleet

#endif  // MIX_FLEET_ROUTER_H_
