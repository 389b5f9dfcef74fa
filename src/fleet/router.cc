#include "fleet/router.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "core/check.h"
#include "mediator/plan_cache.h"

namespace mix::fleet {

namespace wire = service::wire;

// ---------------------------------------------------------------------------
// FleetStats

std::string FleetStats::ToString() const {
  std::string s = "fleet{opens=" + std::to_string(opens_routed) +
                  " spills=" + std::to_string(open_spills) +
                  " sheds=" + std::to_string(sheds) +
                  " failovers=" + std::to_string(failovers) +
                  " reopens=" + std::to_string(reopens) +
                  " commands=" + std::to_string(commands) +
                  " replays=" + std::to_string(path_replays) +
                  " ejections=" + std::to_string(health.ejections) +
                  " probes=" + std::to_string(health.probes) +
                  " readmissions=" + std::to_string(health.readmissions) +
                  " load=[";
  for (size_t i = 0; i < sessions_per_backend.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(sessions_per_backend[i]);
  }
  s += "]}";
  return s;
}

// ---------------------------------------------------------------------------
// SessionRouter

namespace {
std::vector<std::string> Names(const std::vector<SessionRouter::Backend>& bs) {
  std::vector<std::string> names;
  names.reserve(bs.size());
  for (const auto& b : bs) names.push_back(b.name);
  return names;
}
}  // namespace

SessionRouter::SessionRouter(std::vector<Backend> backends, Options options)
    : backends_(std::move(backends)),
      options_(options),
      ring_(Names(backends_), options.virtual_nodes),
      health_(backends_.size(), options.health) {
  MIX_CHECK_MSG(!backends_.empty(), "SessionRouter needs at least one backend");
  load_.reserve(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    load_.push_back(std::make_unique<std::atomic<int64_t>>(0));
  }
}

int64_t SessionRouter::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SessionRouter::LoadAdmits(size_t backend) const {
  // Fair share over *healthy* backends: ejecting a peer raises everyone
  // else's cap, so its sessions have somewhere to land.
  size_t alive = health_.healthy_count();
  if (alive == 0) alive = 1;
  int64_t total = total_load_.load(std::memory_order_relaxed);
  double cap = std::ceil(options_.bounded_load_factor *
                         static_cast<double>(total + 1) /
                         static_cast<double>(alive));
  if (cap < static_cast<double>(options_.min_load_cap)) {
    cap = static_cast<double>(options_.min_load_cap);
  }
  if (cap < 1.0) cap = 1.0;
  return static_cast<double>(load_[backend]->load(std::memory_order_relaxed)) <
         cap;
}

void SessionRouter::AddLoad(size_t backend, int64_t delta) {
  load_[backend]->fetch_add(delta, std::memory_order_relaxed);
  total_load_.fetch_add(delta, std::memory_order_relaxed);
}

std::unique_ptr<wire::FrameTransport> SessionRouter::MakeTransport() {
  return std::make_unique<RoutedSessionTransport>(this);
}

Result<std::unique_ptr<client::FramedDocument>> SessionRouter::OpenDocument(
    const std::string& xmas_text, int64_t deadline_ns) {
  return client::FramedDocument::Open(MakeTransport(), xmas_text, deadline_ns);
}

Result<std::unique_ptr<client::FramedDocument>> SessionRouter::OpenDocument(
    const std::string& xmas_text, int64_t deadline_ns,
    const net::RetryOptions& retry) {
  return client::FramedDocument::Open(MakeTransport(), xmas_text, deadline_ns,
                                      retry);
}

FleetStats SessionRouter::stats() const {
  FleetStats s;
  s.opens_routed = opens_routed_.load(std::memory_order_relaxed);
  s.open_spills = open_spills_.load(std::memory_order_relaxed);
  s.sheds = sheds_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.reopens = reopens_.load(std::memory_order_relaxed);
  s.commands = commands_.load(std::memory_order_relaxed);
  s.path_replays = path_replays_.load(std::memory_order_relaxed);
  s.sessions_per_backend.reserve(load_.size());
  for (const auto& l : load_) {
    s.sessions_per_backend.push_back(l->load(std::memory_order_relaxed));
  }
  s.health = health_.stats();
  return s;
}

// ---------------------------------------------------------------------------
// RoutedSessionTransport

RoutedSessionTransport::RoutedSessionTransport(SessionRouter* router)
    : router_(router), conns_(router->backend_count()) {}

RoutedSessionTransport::~RoutedSessionTransport() {
  // A client that drops its document without Close leaves sessions to the
  // backends' TTL sweeps, but the router's load accounting must not leak.
  for (const auto& [id, bind] : sessions_) {
    (void)id;
    router_->AddLoad(bind.backend, -1);
  }
}

wire::FrameTransport* RoutedSessionTransport::Conn(size_t backend) {
  if (!conns_[backend]) conns_[backend] = router_->backends_[backend].connect();
  return conns_[backend].get();
}

Result<std::string> RoutedSessionTransport::RoundTrip(
    const std::string& request_bytes) {
  Result<wire::Frame> decoded = wire::DecodeFrame(request_bytes);
  if (!decoded.ok()) {
    // Mirror a server: protocol garbage is answered, not dropped.
    return wire::EncodeFrame(wire::Frame::Error(decoded.status()));
  }
  wire::Frame& request = decoded.value();
  switch (request.type) {
    case wire::MsgType::kOpen:
      return HandleOpen(std::move(request));
    case wire::MsgType::kLxpGetRoot:
    case wire::MsgType::kLxpFillMany:
      return HandleLxp(request);
    case wire::MsgType::kMetrics:
      return HandleMetrics(request);
    case wire::MsgType::kClose:
    case wire::MsgType::kRoot:
    case wire::MsgType::kDown:
    case wire::MsgType::kRight:
    case wire::MsgType::kFetch:
    case wire::MsgType::kSelectSibling:
    case wire::MsgType::kNthChild:
    case wire::MsgType::kDownAll:
    case wire::MsgType::kNextSiblings:
    case wire::MsgType::kFetchSubtree:
      return HandleSession(std::move(request));
    default:
      return wire::EncodeFrame(wire::Frame::Error(Status::InvalidArgument(
          "router: response-typed frame in request position")));
  }
}

Status RoutedSessionTransport::PlaceOpen(const wire::Frame& open_frame,
                                         const std::vector<size_t>& preference,
                                         bool counting_load, size_t exclude,
                                         size_t* backend,
                                         uint64_t* backend_session) {
  int64_t now = SessionRouter::NowNs();
  Status last = Status::Unavailable("fleet: no admittable backend");
  for (size_t b : preference) {
    if (b == exclude) continue;
    // Load first: the check consumes nothing, while a half-open Admit hands
    // out the probe slot — a backend must never be probed just to be skipped.
    if (counting_load && !router_->LoadAdmits(b)) {
      router_->open_spills_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!router_->health_.Admit(b, now)) {
      router_->open_spills_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    wire::FrameTransport* conn = Conn(b);
    if (conn == nullptr) {
      router_->health_.ReportFailure(b, now);
      last = Status::Unavailable("fleet: backend " +
                                 router_->backend_name(b) + " unreachable");
      continue;
    }
    if (!counting_load) {
      router_->reopens_.fetch_add(1, std::memory_order_relaxed);
    }
    Result<wire::Frame> resp = wire::Call(conn, open_frame);
    if (!resp.ok()) {
      router_->health_.ReportFailure(b, now);
      if (resp.status().code() == Status::Code::kDeadlineExceeded) {
        return resp.status();  // the budget is gone everywhere, not just here
      }
      last = resp.status();
      continue;
    }
    const wire::Frame& frame = resp.value();
    if (frame.type == wire::MsgType::kError) {
      Status st = frame.ToStatus();
      router_->health_.ReportSuccess(b);  // it answered; it is alive
      if (st.code() == Status::Code::kUnavailable) {
        // Alive but full (admission/session-table pressure): spill onward.
        router_->open_spills_.fetch_add(1, std::memory_order_relaxed);
        last = st;
        continue;
      }
      return st;  // a bad query is bad on every backend — surface it
    }
    if (frame.type != wire::MsgType::kOpenOk) {
      router_->health_.ReportFailure(b, now);
      last = Status::Internal("fleet: unexpected open response type");
      continue;
    }
    router_->health_.ReportSuccess(b);
    if (counting_load) router_->AddLoad(b, +1);
    *backend = b;
    *backend_session = frame.session;
    return Status::OK();
  }
  return last;
}

Result<std::string> RoutedSessionTransport::HandleOpen(wire::Frame request) {
  // Place by the canonical query key so textual variants of one view
  // co-locate with its warm caches.
  std::vector<size_t> preference = router_->ring_.PreferenceFor(
      mediator::CanonicalXmasKey(request.text));
  // Attach an idempotency token (unless the client brought its own) so a
  // lost open *response* replays onto the live session instead of leaking
  // one. Router-minted tokens are namespaced per router instance.
  if (request.text2.empty()) {
    request.text2 =
        "fleet-" + std::to_string(router_->next_token_.fetch_add(
                       1, std::memory_order_relaxed));
  }
  size_t backend = 0;
  uint64_t backend_session = 0;
  Status placed = PlaceOpen(request, preference, /*counting_load=*/true,
                            /*exclude=*/static_cast<size_t>(-1), &backend,
                            &backend_session);
  if (!placed.ok()) {
    if (placed.code() == Status::Code::kUnavailable) {
      router_->sheds_.fetch_add(1, std::memory_order_relaxed);
      // Surface as a transport-level Status (not an error frame): the
      // client's RetryOptions treat it as retryable and re-drive the open
      // once a probe readmits a backend.
      return placed;
    }
    return wire::EncodeFrame(wire::Frame::Error(placed));
  }
  uint64_t client_session =
      router_->next_client_session_.fetch_add(1, std::memory_order_relaxed);
  sessions_[client_session] =
      Binding{backend, backend_session, std::move(request)};
  router_->opens_routed_.fetch_add(1, std::memory_order_relaxed);
  wire::Frame ok;
  ok.type = wire::MsgType::kOpenOk;
  ok.session = client_session;
  return wire::EncodeFrame(ok);
}

Result<NodeId> RoutedSessionTransport::DeriveByPath(
    Binding& bind, const std::vector<Step>& path) {
  wire::FrameTransport* conn = Conn(bind.backend);
  if (conn == nullptr) {
    return Status::Unavailable("fleet: backend unreachable during replay");
  }
  wire::Frame req;
  req.type = wire::MsgType::kRoot;
  req.session = bind.backend_session;
  NodeId cur;
  Result<wire::Frame> root = wire::Call(conn, req);
  if (!root.ok()) return root.status();
  if (root.value().type == wire::MsgType::kError) {
    return root.value().ToStatus();
  }
  if (root.value().type != wire::MsgType::kNode || !root.value().flag) {
    return Status::NotFound("fleet: replay found no document root");
  }
  cur = root.value().node;
  for (const Step& step : path) {
    wire::Frame r;
    r.type = step.op;
    r.session = bind.backend_session;
    r.node = cur;
    r.number = step.number;
    r.text2 = step.text2;
    Result<wire::Frame> resp = wire::Call(conn, r);
    if (!resp.ok()) return resp.status();
    const wire::Frame& f = resp.value();
    if (f.type == wire::MsgType::kError) return f.ToStatus();
    if (f.type == wire::MsgType::kNode) {
      if (!f.flag) {
        return Status::NotFound("fleet: replay path no longer resolves");
      }
      cur = f.node;
    } else if (f.type == wire::MsgType::kNodeList) {
      if (step.index >= f.nodes.size()) {
        return Status::NotFound("fleet: replay path no longer resolves");
      }
      cur = f.nodes[step.index];
    } else {
      return Status::Internal("fleet: unexpected replay response type");
    }
  }
  return cur;
}

Result<NodeId> RoutedSessionTransport::TranslateNode(Binding& bind,
                                                     const NodeId& id) {
  if (!id.valid()) return id;
  auto hit = bind.remap.find(id);
  if (hit != bind.remap.end()) return hit->second;
  auto path = bind.paths.find(id);
  if (path == bind.paths.end()) return id;  // not an id this session issued
  Result<NodeId> derived = DeriveByPath(bind, path->second);
  if (!derived.ok()) return derived.status();
  // Memoize both directions of the epoch bridge: the old id now maps here,
  // and the derived id carries the same provenance (so it survives the
  // NEXT failover too).
  bind.remap[id] = derived.value();
  if (derived.value() != id) {
    bind.paths[derived.value()] = path->second;
    bind.remap[derived.value()] = derived.value();
  }
  router_->path_replays_.fetch_add(1, std::memory_order_relaxed);
  return derived.value();
}

void RoutedSessionTransport::RecordProvenance(Binding& bind,
                                              const wire::Frame& request,
                                              const wire::Frame& response) {
  auto remember = [&](const NodeId& id, Step step) {
    std::vector<Step> path;
    if (request.type != wire::MsgType::kRoot) {
      auto base = bind.paths.find(request.node);
      if (base == bind.paths.end()) return;  // untracked base: cannot derive
      path = base->second;
      path.push_back(std::move(step));
    }
    bind.remap[id] = id;
    bind.paths[id] = std::move(path);
  };
  switch (request.type) {
    case wire::MsgType::kRoot:
      if (response.type == wire::MsgType::kNode && response.flag) {
        remember(response.node, Step{});
      }
      break;
    case wire::MsgType::kDown:
    case wire::MsgType::kRight:
    case wire::MsgType::kSelectSibling:
    case wire::MsgType::kNthChild:
      if (response.type == wire::MsgType::kNode && response.flag) {
        remember(response.node,
                 Step{request.type, request.number, request.text2, 0});
      }
      break;
    case wire::MsgType::kDownAll:
    case wire::MsgType::kNextSiblings:
      if (response.type == wire::MsgType::kNodeList) {
        for (size_t i = 0; i < response.nodes.size(); ++i) {
          remember(response.nodes[i],
                   Step{request.type, request.number, request.text2, i});
        }
      }
      break;
    default:
      break;  // kFetch / kFetchSubtree return no node ids
  }
}

Result<std::string> RoutedSessionTransport::HandleSession(wire::Frame request) {
  auto it = sessions_.find(request.session);
  if (it == sessions_.end()) {
    return wire::EncodeFrame(wire::Frame::Error(Status::NotFound(
        "fleet: unknown session " + std::to_string(request.session))));
  }
  uint64_t client_session = request.session;

  if (request.type == wire::MsgType::kClose) {
    Binding bind = it->second;
    sessions_.erase(it);
    router_->AddLoad(bind.backend, -1);
    wire::FrameTransport* conn = Conn(bind.backend);
    if (conn != nullptr) {
      request.session = bind.backend_session;
      Result<wire::Frame> resp = wire::Call(conn, request);
      if (resp.ok() && resp.value().type != wire::MsgType::kError) {
        router_->health_.ReportSuccess(bind.backend);
      }
    }
    // The client's session is gone either way; a backend that missed the
    // close will TTL-evict it.
    wire::Frame ok;
    ok.type = wire::MsgType::kCloseOk;
    ok.session = client_session;
    return wire::EncodeFrame(ok);
  }

  router_->commands_.fetch_add(1, std::memory_order_relaxed);

  // The failover loop: forward; on a retryable transport failure, report it,
  // rebind the session onto the next admitted candidate (re-Open with a
  // FRESH token — a different backend means a genuinely new session), and
  // let RetryPolicy re-drive the command. Node-ids are self-describing, so
  // the re-issued command answers byte-identically wherever it lands.
  wire::Frame response;
  bool reopened_here = false;  // one transparent same-backend re-open per cmd
  net::RetryPolicy policy(router_->options_.retry, 0x666c656574726f75ull);
  net::RetryPolicy::Outcome outcome = policy.Run(
      [&]() -> Status {
        Binding& bind = sessions_[client_session];
        wire::FrameTransport* conn = Conn(bind.backend);
        int64_t now = SessionRouter::NowNs();
        if (conn == nullptr) {
          router_->health_.ReportFailure(bind.backend, now);
          Rebind(client_session);
          return Status::Unavailable("fleet: backend unreachable");
        }
        wire::Frame forward = request;
        forward.session = bind.backend_session;
        // Bridge epochs: an id minted before the last re-open names nothing
        // on the current session — re-derive it from its recorded path.
        if (forward.node.valid()) {
          Result<NodeId> mapped = TranslateNode(bind, forward.node);
          if (!mapped.ok()) {
            // Replay talks to the current backend, so its failures follow
            // the same failover discipline as the command itself.
            router_->health_.ReportFailure(bind.backend, now);
            if (net::IsRetryableCode(mapped.status().code())) {
              Rebind(client_session);
            }
            return mapped.status();
          }
          forward.node = mapped.value();
        }
        Result<wire::Frame> resp = wire::Call(conn, forward);
        if (!resp.ok()) {
          router_->health_.ReportFailure(bind.backend, now);
          if (net::IsRetryableCode(resp.status().code())) {
            Rebind(client_session);  // best effort; next attempt re-issues
          }
          return resp.status();
        }
        const wire::Frame& frame = resp.value();
        if (frame.type == wire::MsgType::kError &&
            frame.ToStatus().code() == Status::Code::kNotFound &&
            !reopened_here) {
          // The backend is alive but the session is gone (TTL eviction or a
          // restart). Re-open in place — same backend, same saved frame; if
          // the old open's token still maps to a live session this
          // re-attaches, otherwise it opens fresh — and re-issue once.
          reopened_here = true;
          router_->health_.ReportSuccess(bind.backend);
          router_->reopens_.fetch_add(1, std::memory_order_relaxed);
          Result<wire::Frame> reopen = wire::Call(conn, bind.open_frame);
          if (reopen.ok() && reopen.value().type == wire::MsgType::kOpenOk) {
            bind.backend_session = reopen.value().session;
            // New epoch: the revived session minted fresh ids, so cached
            // translations are stale (path replay rebuilds them lazily).
            bind.remap.clear();
            return Status::Unavailable("fleet: session re-opened, re-issue");
          }
          response = frame;  // could not revive: surface the kNotFound
          return Status::OK();
        }
        if (frame.type != wire::MsgType::kError) {
          router_->health_.ReportSuccess(bind.backend);
        }
        response = frame;
        return Status::OK();
      },
      /*clock=*/nullptr, /*deadline_ns=*/-1);
  if (!outcome.status.ok()) {
    return outcome.status;  // transport-level: every candidate exhausted
  }
  if (response.type != wire::MsgType::kError) {
    // Keyed off the ORIGINAL (client-held) base id, whatever epoch the
    // command actually executed in.
    RecordProvenance(sessions_[client_session], request, response);
  }
  response.session = client_session;
  return wire::EncodeFrame(response);
}

void RoutedSessionTransport::Rebind(uint64_t client_session) {
  auto it = sessions_.find(client_session);
  if (it == sessions_.end()) return;
  Binding& bind = it->second;
  size_t failed = bind.backend;
  std::vector<size_t> preference = router_->ring_.PreferenceFor(
      mediator::CanonicalXmasKey(bind.open_frame.text));
  // A new backend is a new session: mint a fresh token so the replayed open
  // cannot collide with the dead backend's (possibly still-live) entry.
  wire::Frame reopen = bind.open_frame;
  reopen.text2 = "fleet-" + std::to_string(router_->next_token_.fetch_add(
                                1, std::memory_order_relaxed));
  size_t backend = 0;
  uint64_t backend_session = 0;
  Status placed = PlaceOpen(reopen, preference, /*counting_load=*/false,
                            /*exclude=*/failed, &backend, &backend_session);
  if (!placed.ok()) return;  // stay bound; the retry loop surfaces the error
  router_->AddLoad(failed, -1);
  router_->AddLoad(backend, +1);
  router_->failovers_.fetch_add(1, std::memory_order_relaxed);
  bind.backend = backend;
  bind.backend_session = backend_session;
  bind.open_frame = std::move(reopen);
  // New epoch: every id the client holds is foreign to the new session.
  // Provenance paths survive; cached translations do not.
  bind.remap.clear();
}

Result<std::string> RoutedSessionTransport::HandleLxp(
    const wire::Frame& request) {
  // LXP serving is stateless per command (holes name their own positions),
  // so URIs route like sessions do — hashed, health-walked — but without a
  // binding: any candidate that answers is correct.
  std::vector<size_t> preference =
      router_->ring_.PreferenceFor(request.text);
  Status last = Status::Unavailable("fleet: no admittable backend");
  int64_t now = SessionRouter::NowNs();
  for (size_t b : preference) {
    if (!router_->health_.Admit(b, now)) continue;
    wire::FrameTransport* conn = Conn(b);
    if (conn == nullptr) {
      router_->health_.ReportFailure(b, now);
      continue;
    }
    Result<std::string> resp = conn->RoundTrip(wire::EncodeFrame(request));
    if (!resp.ok()) {
      router_->health_.ReportFailure(b, now);
      last = resp.status();
      continue;
    }
    router_->health_.ReportSuccess(b);
    return resp;
  }
  router_->sheds_.fetch_add(1, std::memory_order_relaxed);
  return last;
}

Result<std::string> RoutedSessionTransport::HandleMetrics(
    const wire::Frame& request) {
  std::string text;
  int64_t now = SessionRouter::NowNs();
  for (size_t b = 0; b < router_->backend_count(); ++b) {
    if (router_->health_.state(b) != BackendState::kHealthy) continue;
    wire::FrameTransport* conn = Conn(b);
    if (conn == nullptr) continue;
    Result<wire::Frame> resp = wire::Call(conn, request);
    if (!resp.ok()) {
      router_->health_.ReportFailure(b, now);
      continue;
    }
    if (resp.value().type == wire::MsgType::kMetricsText) {
      text += resp.value().text;
      if (!text.empty() && text.back() != '\n') text += "\n";
    }
  }
  text += router_->stats().ToString();
  wire::Frame out;
  out.type = wire::MsgType::kMetricsText;
  out.text = std::move(text);
  return wire::EncodeFrame(out);
}

}  // namespace mix::fleet
