#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <future>

namespace mix::service {

namespace {

using wire::Frame;
using wire::MsgType;

std::chrono::steady_clock::time_point DeadlineFor(const Frame& request) {
  if (request.deadline_ns <= 0) {
    return std::chrono::steady_clock::time_point::max();
  }
  return std::chrono::steady_clock::now() +
         std::chrono::nanoseconds(request.deadline_ns);
}

bool IsLxp(MsgType t) {
  return t == MsgType::kLxpGetRoot || t == MsgType::kLxpFillMany;
}

/// Session commands CallInline may run on the calling thread. kOpen
/// compiles and builds a session, and LXP serving has lanes of its own;
/// both stay on the pool.
bool RunsInline(MsgType t) {
  switch (t) {
    case MsgType::kRoot:
    case MsgType::kDown:
    case MsgType::kRight:
    case MsgType::kFetch:
    case MsgType::kSelectSibling:
    case MsgType::kNthChild:
    case MsgType::kDownAll:
    case MsgType::kNextSiblings:
    case MsgType::kFetchSubtree:
    case MsgType::kClose:
      return true;
    default:
      return false;
  }
}

/// Builds the optimizer's source-capability map from the environment:
/// shared sources contribute their declared σ capability; wrapper sources
/// the capability declared at registration (WrapperOptions::capability).
/// Pushdown is honored only for wrappers registered on the whole-database
/// "db" view — against any other view the plan's paths do not match the
/// relational catalog.
mediator::passes::OptimizerOptions BuildOptimizerOptions(
    const SessionEnvironment& env) {
  mediator::passes::OptimizerOptions opts;
  for (const auto& s : env.shared()) {
    if (s.capability.sigma) {
      SourceCapability cap;
      cap.sigma = true;
      opts.sources[s.name] = cap;
    }
  }
  for (const auto& w : env.wrappers()) {
    const SourceCapability& probed = w.options.capability;
    SourceCapability cap;
    if (probed.pushdown && w.uri == "db") {
      cap = probed;
    } else {
      cap.sigma = probed.sigma;
    }
    if (cap.sigma || cap.pushdown) opts.sources[w.name] = std::move(cap);
  }
  return opts;
}

mediator::PlanCache::Options PlanCacheOptions(
    const SessionEnvironment& env, const MediatorService::Options& options) {
  mediator::PlanCache::Options o;
  o.capacity = options.plan_cache_entries;
  o.optimizer = BuildOptimizerOptions(env);
  return o;
}

}  // namespace

MediatorService::MediatorService(const SessionEnvironment* env, Options options)
    : env_(env),
      options_(options),
      source_cache_(buffer::SourceCache::Options{options.source_cache_bytes},
                    &generations_),
      plan_cache_(PlanCacheOptions(*env, options)),
      answer_view_cache_(
          mediator::AnswerViewCache::Options{options.answer_view_cache_bytes},
          &generations_),
      registry_(env,
                SessionRegistry::Options{
                    options.max_sessions, options.session_idle_ttl_ns,
                    &fault_counters_,
                    options.source_cache_bytes > 0 ? &source_cache_ : nullptr,
                    &plan_cache_,
                    options.answer_view_cache_bytes > 0 ? &answer_view_cache_
                                                        : nullptr,
                    &generations_}),
      executor_(Executor::Options{options.workers, options.queue_capacity}) {
  uint64_t key = kWrapperKeyBase;
  for (const auto& [uri, wrapper] : env_->exported()) {
    (void)wrapper;
    // Key 0 marks a concurrent export: KeyForRequest hands those ops a
    // fresh lane each so pipelined exchanges overlap across the pool.
    wrapper_keys_[uri] = env_->exported_concurrent(uri) ? 0 : key++;
  }
}

MediatorService::~MediatorService() = default;

uint64_t MediatorService::KeyForRequest(const Frame& request,
                                        Status* error) const {
  switch (request.type) {
    case MsgType::kOpen: {
      // Opens have no session yet; give each a fresh key so concurrent
      // opens spread over the pool instead of serializing on one lane.
      static std::atomic<uint64_t> open_key{uint64_t{1} << 62};
      return open_key.fetch_add(1, std::memory_order_relaxed);
    }
    case MsgType::kLxpGetRoot:
    case MsgType::kLxpFillMany: {
      auto it = wrapper_keys_.find(request.text);
      if (it == wrapper_keys_.end()) {
        *error = Status::NotFound("no exported wrapper '" + request.text + "'");
        return 0;
      }
      if (it->second == 0) {
        // Concurrent export: the wrapper locks itself, each exchange gets
        // its own lane (same spread trick as kOpen, distinct key range).
        static std::atomic<uint64_t> lxp_key{uint64_t{1} << 61};
        return lxp_key.fetch_add(1, std::memory_order_relaxed);
      }
      return it->second;
    }
    default:
      if (request.session == 0) {
        *error = Status::InvalidArgument("request carries no session id");
        return 0;
      }
      return request.session;
  }
}

void MediatorService::CallAsync(
    std::string request_bytes,
    std::function<void(std::string response_bytes)> done) {
  Dispatch(std::move(request_bytes), std::move(done), /*run_here=*/false);
}

void MediatorService::CallInline(
    std::string request_bytes,
    std::function<void(std::string response_bytes)> done) {
  Dispatch(std::move(request_bytes), std::move(done), /*run_here=*/true);
}

void MediatorService::Dispatch(
    std::string request_bytes,
    std::function<void(std::string response_bytes)> done, bool run_here) {
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++frames_in_;
  }
  auto respond = [this, done = std::move(done)](const Frame& response) {
    std::string bytes = wire::EncodeFrame(response);
    FinishRequest(response.type == MsgType::kError);
    done(std::move(bytes));
  };

  Result<Frame> decoded = wire::DecodeFrame(request_bytes);
  if (!decoded.ok()) {
    respond(Frame::Error(decoded.status()));
    return;
  }
  Frame request = std::move(decoded).ValueOrDie();

  // Metrics requests read shared state only; answer without a queue trip.
  if (request.type == MsgType::kMetrics) {
    Frame f;
    f.type = MsgType::kMetricsText;
    f.text = Metrics().ToString();
    respond(f);
    return;
  }

  Status key_error;
  uint64_t key = KeyForRequest(request, &key_error);
  if (!key_error.ok()) {
    respond(Frame::Error(key_error));
    return;
  }

  auto started = std::chrono::steady_clock::now();
  auto deadline = DeadlineFor(request);
  auto record_latency = [this, started] {
    auto elapsed = std::chrono::steady_clock::now() - started;
    std::lock_guard<std::mutex> lock(metrics_mu_);
    latency_.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  };
  if (run_here && RunsInline(request.type)) {
    Frame response;
    // The lane is released before the response leaves, so the session's
    // next command finds it idle.
    if (executor_.TryRunInline(
            key, [&] { response = Execute(request, deadline); })) {
      record_latency();
      respond(response);
      return;
    }
  }
  Status admitted = executor_.Submit(
      key, deadline,
      [this, request = std::move(request), respond, record_latency,
       deadline](const Status& admission) {
        Frame response = admission.ok() ? Execute(request, deadline)
                                        : Frame::Error(admission);
        record_latency();
        respond(response);
      });
  if (!admitted.ok()) {
    respond(Frame::Error(admitted));
  }
}

Result<std::string> MediatorService::RoundTrip(const std::string& request_bytes) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  CallInline(request_bytes, [&promise](std::string bytes) {
    promise.set_value(std::move(bytes));
  });
  return future.get();
}

void MediatorService::FinishRequest(bool is_error) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  ++frames_out_;
  if (is_error) {
    ++requests_error_;
  } else {
    ++requests_ok_;
  }
}

Frame MediatorService::Execute(
    const Frame& request, std::chrono::steady_clock::time_point deadline) {
  switch (request.type) {
    case MsgType::kOpen:
      return ExecuteOpen(request);
    case MsgType::kClose: {
      Status s = registry_.Close(request.session);
      if (!s.ok()) return Frame::Error(s);
      Frame f;
      f.type = MsgType::kCloseOk;
      f.session = request.session;
      return f;
    }
    default:
      break;
  }
  if (IsLxp(request.type)) return ExecuteLxp(request);

  std::shared_ptr<Session> session = registry_.Find(request.session);
  // TTL sweep from the command path too — a service no longer seeing Opens
  // must still reclaim abandoned sessions. The serving session is excluded
  // (a session must never evict itself mid-dialogue); MaybeEvictIdle
  // early-outs for free while nothing is near expiry.
  registry_.MaybeEvictIdle(request.session);
  if (session == nullptr) {
    return Frame::Error(Status::NotFound("unknown session " +
                                         std::to_string(request.session)));
  }
  // Propagate the executor deadline's remaining budget into the session's
  // source buffers as a virtual fill deadline (1 real ns = 1 simulated ns).
  int64_t budget_ns = -1;
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    auto remaining = deadline - std::chrono::steady_clock::now();
    budget_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(remaining)
               .count());
  }
  session->BeginCommand(budget_ns);
  Frame response = ExecuteNavigation(request, *session);
  session->EndCommand();
  // A degraded or deadline-cut fill surfaces as a typed error frame even
  // when navigation produced a partial answer shape.
  Status source = session->TakeSourceStatus();
  if (!source.ok() && response.type != MsgType::kError) {
    response = Frame::Error(source);
  }
  // Publish hook for the answer-view cache: a full-depth FetchSubtree of
  // the document root that completed with no source fault is a
  // navigation-complete snapshot of this session's answer. Publish runs
  // here (not inside the session) because only this path knows the
  // exchange succeeded end-to-end; Publish itself re-rejects truncated or
  // degraded entries, so a partial snapshot can never enter the cache.
  if (source.ok() && response.type == MsgType::kSubtree &&
      request.number < 0 && session->donation().has_value() &&
      request.node == session->document()->Root()) {
    answer_view_cache_.Publish(*session->donation(), response.entries,
                               session->pins());
    session->donation().reset();
  }
  session->metrics().requests += 1;
  if (response.type == MsgType::kError) session->metrics().errors += 1;
  return response;
}

Frame MediatorService::ExecuteOpen(const Frame& request) {
  // text2 carries the optional idempotency token (kOpen never used it, so
  // older clients — which always send it empty — are unaffected).
  Result<uint64_t> id = registry_.Open(request.text, request.text2);
  if (!id.ok()) return Frame::Error(id.status());
  Frame f;
  f.type = MsgType::kOpenOk;
  f.session = id.value();
  return f;
}

Frame MediatorService::ExecuteLxp(const Frame& request) {
  auto it = env_->exported().find(request.text);
  if (it == env_->exported().end()) {
    return Frame::Error(
        Status::NotFound("no exported wrapper '" + request.text + "'"));
  }
  buffer::LxpWrapper* wrapper = it->second;
  // Served through the fallible face: an exported wrapper that is itself a
  // relay (a framed stub whose upstream failed) or a fault decorator
  // reports its failure as an error frame, never as an empty — and
  // therefore plausible — refinement.
  Frame f;
  Status s;
  switch (request.type) {
    case MsgType::kLxpGetRoot:
      f.type = MsgType::kLxpRoot;
      s = wrapper->TryGetRoot(request.text, &f.text);
      break;
    case MsgType::kLxpFillMany:
      f.type = MsgType::kLxpFills;
      s = wrapper->TryFillMany(
          request.strings, buffer::FillBudget{request.number, request.number2},
          &f.hole_fills);
      break;
    default:
      s = Status::Internal("non-LXP frame in LXP path");
  }
  if (!s.ok()) return Frame::Error(s);
  return f;
}

Frame MediatorService::ExecuteNavigation(const Frame& request,
                                         Session& session) {
  Navigable* doc = session.document();
  // Boundary validation: every command except kRoot navigates FROM an id the
  // client holds, and ids are only meaningful to the session that minted
  // them (operator fw-ids carry a plan-instance owner stamp — the navigable
  // layer CHECK-fails on foreign ones). Reject anything this session never
  // issued with a typed frame instead of letting a stale handle — a
  // restarted peer, a failed-over client, a fuzzer — abort the process.
  if (request.type != MsgType::kRoot && !session.KnowsNode(request.node)) {
    return Frame::Error(Status::InvalidArgument(
        "node id was not issued by this session (stale or foreign handle)"));
  }
  Frame f;
  switch (request.type) {
    case MsgType::kRoot:
      f = Frame::OptionalNode(doc->Root());
      break;
    case MsgType::kDown:
      f = Frame::OptionalNode(doc->Down(request.node));
      break;
    case MsgType::kRight:
      f = Frame::OptionalNode(doc->Right(request.node));
      break;
    case MsgType::kFetch:
      f.type = MsgType::kLabel;
      f.text = doc->Fetch(request.node);
      return f;
    case MsgType::kSelectSibling:
      f = Frame::OptionalNode(doc->SelectSibling(
          request.node, LabelPredicate::Equals(request.text2)));
      break;
    case MsgType::kNthChild:
      f = Frame::OptionalNode(doc->NthChild(request.node, request.number));
      break;
    case MsgType::kDownAll:
      f.type = MsgType::kNodeList;
      doc->DownAll(request.node, &f.nodes);
      break;
    case MsgType::kNextSiblings:
      f.type = MsgType::kNodeList;
      doc->NextSiblings(request.node, request.number, &f.nodes);
      break;
    case MsgType::kFetchSubtree:
      f.type = MsgType::kSubtree;
      doc->FetchSubtree(request.node, request.number, &f.entries);
      return f;
    default:
      return Frame::Error(Status::InvalidArgument(
          "frame type is not a request: " +
          std::to_string(static_cast<int>(request.type))));
  }
  // Remember what we handed out so the next inbound id can be validated.
  if (f.type == MsgType::kNode && f.flag) session.RememberNode(f.node);
  if (f.type == MsgType::kNodeList) {
    for (const NodeId& n : f.nodes) session.RememberNode(n);
  }
  return f;
}

ServiceMetricsSnapshot MediatorService::Metrics() const {
  ServiceMetricsSnapshot snap;
  snap.backend_id = options_.backend_id;
  SessionRegistry::Counters sessions = registry_.counters();
  snap.sessions_open = sessions.open;
  snap.sessions_opened = sessions.opened;
  snap.sessions_closed = sessions.closed;
  snap.sessions_evicted = sessions.evicted;
  snap.sessions_open_replays = sessions.open_replays;
  snap.registry_sweep_scans = sessions.sweep_scans;
  Executor::Stats exec = executor_.stats();
  snap.requests_rejected = exec.rejected;
  snap.requests_expired = exec.expired;
  snap.requests_inline = exec.inline_runs;
  snap.queue_depth = exec.queued;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    snap.requests_ok = requests_ok_;
    snap.requests_error = requests_error_;
    snap.frames_in = frames_in_;
    snap.frames_out = frames_out_;
    snap.p50_ns = latency_.PercentileNs(0.5);
    snap.p99_ns = latency_.PercentileNs(0.99);
  }
  snap.source_faults = fault_counters_.faults.load(std::memory_order_relaxed);
  snap.source_retries =
      fault_counters_.retries.load(std::memory_order_relaxed);
  snap.source_backoff_ns =
      fault_counters_.backoff_ns.load(std::memory_order_relaxed);
  snap.degraded_holes =
      fault_counters_.degraded_holes.load(std::memory_order_relaxed);
  buffer::SourceCache::Stats cache = source_cache_.stats();
  snap.cache_hits = cache.hits;
  snap.cache_misses = cache.misses;
  snap.cache_evictions = cache.evictions;
  snap.cache_bytes = cache.bytes;
  snap.cache_entries = cache.entries;
  snap.cache_peak_bytes = cache.peak_bytes;
  mediator::PlanCache::Stats plans = plan_cache_.stats();
  snap.plan_cache_hits = plans.hits;
  snap.plan_cache_misses = plans.misses;
  snap.plans_optimized = plans.optimized;
  snap.optimizer_rewrites = plans.rewrites;
  snap.optimizer_passes.assign(plans.pass_applied.begin(),
                               plans.pass_applied.end());
  mediator::AnswerViewCache::Stats views = answer_view_cache_.stats();
  snap.view_hits = views.hits;
  snap.view_misses = views.misses;
  snap.view_publishes = views.publishes;
  snap.view_evictions = views.evictions;
  snap.view_invalidations = views.invalidations;
  snap.view_bytes = views.bytes;
  snap.view_entries = views.entries;
  snap.view_rejects.assign(views.rejects.begin(), views.rejects.end());
  {
    std::lock_guard<std::mutex> lock(net_stats_mu_);
    if (net_stats_provider_) snap.net = net_stats_provider_();
  }
  return snap;
}

}  // namespace mix::service
