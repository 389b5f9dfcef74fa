#include "service/session.h"

#include <algorithm>

#include "buffer/fault_wrapper.h"
#include "core/block_hook.h"

namespace mix::service {

namespace {

/// Non-owning Navigable pass-through. The mediator's view-opener contract
/// hands ownership of the opened view to the instantiated mediator, but a
/// session must keep its overridden-view BufferComponent in buffers_ (for
/// budget/metrics/status plumbing) — so the opener hands out this borrow
/// instead. Every method forwards, batched ones included, so the buffer's
/// vectored overrides stay on the hot path.
class BorrowedNavigable : public Navigable {
 public:
  explicit BorrowedNavigable(Navigable* inner) : inner_(inner) {}

  NodeId Root() override { return inner_->Root(); }
  std::optional<NodeId> Down(const NodeId& p) override {
    return inner_->Down(p);
  }
  std::optional<NodeId> Right(const NodeId& p) override {
    return inner_->Right(p);
  }
  Label Fetch(const NodeId& p) override { return inner_->Fetch(p); }
  Atom FetchAtom(const NodeId& p) override { return inner_->FetchAtom(p); }
  std::optional<NodeId> SelectSibling(const NodeId& p,
                                      const LabelPredicate& pred) override {
    return inner_->SelectSibling(p, pred);
  }
  std::optional<NodeId> NthChild(const NodeId& p, int64_t index) override {
    return inner_->NthChild(p, index);
  }
  void DownAll(const NodeId& p, std::vector<NodeId>* out) override {
    inner_->DownAll(p, out);
  }
  void NextSiblings(const NodeId& p, int64_t limit,
                    std::vector<NodeId>* out) override {
    inner_->NextSiblings(p, limit, out);
  }
  void FetchSubtree(const NodeId& p, int64_t depth,
                    std::vector<SubtreeEntry>* out) override {
    inner_->FetchSubtree(p, depth, out);
  }

 private:
  Navigable* inner_;
};

/// Collects the optimizer's per-source view URI overrides from a compiled
/// plan: source name -> URI. The wrapper-pushdown pass only rewrites a
/// source it proved unique in the plan, so one URI per name suffices.
void CollectUriOverrides(const mediator::PlanNode& node,
                         std::map<std::string, std::string>* out) {
  if (node.kind == mediator::PlanNode::Kind::kSource &&
      !node.source_uri.empty()) {
    (*out)[node.source_name] = node.source_uri;
  }
  for (const auto& child : node.children) CollectUriOverrides(*child, out);
}

}  // namespace

void SessionEnvironment::RegisterShared(std::string name, Navigable* nav) {
  shared_.push_back(SharedSource{std::move(name), nav, {}});
}

void SessionEnvironment::RegisterShared(std::string name, Navigable* nav,
                                        SourceCapability capability) {
  shared_.push_back(
      SharedSource{std::move(name), nav, std::move(capability)});
}

void SessionEnvironment::RegisterWrapperFactory(
    std::string name, std::function<std::unique_ptr<buffer::LxpWrapper>()> factory,
    std::string uri, WrapperOptions options) {
  wrappers_.push_back(WrapperSource{std::move(name), std::move(factory),
                                    std::move(uri), options});
}

void SessionEnvironment::ExportWrapper(std::string uri,
                                       buffer::LxpWrapper* wrapper,
                                       bool concurrent) {
  if (concurrent) exported_concurrent_.insert(uri);
  exported_[std::move(uri)] = wrapper;
}

Result<std::shared_ptr<Session>> Session::Build(
    uint64_t id, const SessionEnvironment& env,
    std::shared_ptr<const mediator::PlanNode> plan,
    net::FaultCounters* fault_counters, buffer::SourceCache* source_cache,
    std::shared_ptr<const mediator::AnswerSnapshot> view_snapshot) {
  // shared_ptr with private constructor: build through a local subclass.
  struct MakeShared : Session {};
  std::shared_ptr<Session> session = std::make_shared<MakeShared>();
  session->id_ = id;
  session->plan_ = std::move(plan);

  if (view_snapshot != nullptr) {
    // Answer-view serving: the rewritten plan references only the pinned
    // snapshot. No wrappers/buffers/channels are built — the dialogue
    // costs zero wrapper exchanges by construction.
    session->view_snapshot_ = std::move(view_snapshot);
    mediator::SourceRegistry sources;
    sources.Register(mediator::kAnswerViewSourceName,
                     session->view_snapshot_->nav.get());
    Result<std::unique_ptr<mediator::LazyMediator>> instance =
        mediator::LazyMediator::Build(*session->plan_, sources);
    if (!instance.ok()) return instance.status();
    session->mediator_ = std::move(instance).ValueOrDie();
    session->document_ = session->mediator_->document();
    session->metrics_.view_served = 1;
    return session;
  }

  // The optimizer may have retargeted a source to a different view of the
  // same wrapper (wrapper predicate pushdown rewrites `db` into a
  // "sql:SELECT ... WHERE ..." URI). The session honors that by opening
  // the wrapper on the overridden URI and answering the plan's opener
  // lookup with a borrow of that buffer.
  std::map<std::string, std::string> uri_overrides;
  CollectUriOverrides(*session->plan_, &uri_overrides);

  mediator::SourceRegistry sources;
  for (const auto& s : env.shared()) {
    sources.Register(s.name, s.nav);
  }
  size_t source_index = 0;
  for (const auto& w : env.wrappers()) {
    auto clock = std::make_unique<net::SimClock>();
    auto channel =
        std::make_unique<net::Channel>(clock.get(), w.options.channel);
    std::unique_ptr<buffer::LxpWrapper> wrapper = w.factory();
    if (w.options.fault.any()) {
      // Interpose the fault injector between buffer and wrapper. The seed
      // mixes in the session id: deterministic per session, independent
      // across sessions (fault isolation tests depend on both).
      auto faulty = std::make_unique<buffer::FaultyLxpWrapper>(
          std::move(wrapper), w.options.fault,
          w.options.fault_seed ^ (id * 0x9e3779b97f4a7c15ull));
      faulty->AttachClock(clock.get());
      wrapper = std::move(faulty);
    }
    buffer::BufferComponent::Options opts;
    opts.channel = channel.get();
    opts.retry = w.options.retry;
    opts.retry_seed =
        (id * 0x9e3779b97f4a7c15ull) ^ (source_index + 0x72747279ull);
    opts.clock = clock.get();
    opts.shared_counters = fault_counters;
    auto override_it = uri_overrides.find(w.name);
    bool overridden = override_it != uri_overrides.end();
    const std::string& uri = overridden ? override_it->second : w.uri;
    if (source_cache != nullptr && w.options.cache_fills && !overridden) {
      // Pin the source's generation now: the session keeps one consistent
      // snapshot even if the source is invalidated mid-dialogue (E9
      // freshness is per-session, exactly as without the cache).
      //
      // Overridden views bypass the shared cache entirely: their hole ids
      // ("q:<n>:<row>") denote different fragments per view URI, and
      // InvalidateSource bumps the generation of the plain name only — a
      // keyed-by-name cache would serve one view's rows to another, and a
      // mangled key would dodge invalidation. Pushed-down scans ship less
      // data anyway.
      opts.source_cache = source_cache;
      opts.cache_source = w.name;
      opts.cache_generation = source_cache->Generation(w.name);
    }
    opts.max_in_flight = w.options.max_in_flight;
    ++source_index;
    auto buffer = std::make_unique<buffer::BufferComponent>(wrapper.get(),
                                                            uri, opts);
    sources.Register(w.name, buffer.get());
    if (overridden) {
      // The plan's source node carries the override, so instantiation will
      // resolve through the opener; it must hand back exactly this buffer
      // (the session's budget/metrics plumbing walks buffers_).
      sources.RegisterOpener(
          w.name,
          [nav = static_cast<Navigable*>(buffer.get()),
           expected = uri](const std::string& open_uri)
              -> std::unique_ptr<Navigable> {
            if (open_uri != expected) return nullptr;
            return std::make_unique<BorrowedNavigable>(nav);
          });
    }
    session->clocks_.push_back(std::move(clock));
    session->channels_.push_back(std::move(channel));
    session->wrappers_.push_back(std::move(wrapper));
    session->buffers_.push_back(std::move(buffer));
  }

  Result<std::unique_ptr<mediator::LazyMediator>> instance =
      mediator::LazyMediator::Build(*session->plan_, sources);
  if (!instance.ok()) return instance.status();
  session->mediator_ = std::move(instance).ValueOrDie();
  session->document_ = session->mediator_->document();
  return session;
}

void Session::RefreshSourceMetrics() {
  metrics_.fills = 0;
  metrics_.source_faults = 0;
  metrics_.source_retries = 0;
  metrics_.source_backoff_ns = 0;
  metrics_.degraded_holes = 0;
  metrics_.cache_hits = 0;
  metrics_.cache_misses = 0;
  metrics_.readahead_issued = 0;
  metrics_.readahead_holes = 0;
  metrics_.readahead_hits = 0;
  metrics_.readahead_fills = 0;
  metrics_.readahead_fallbacks = 0;
  metrics_.readahead_orphaned = 0;
  metrics_.lxp = net::ChannelStats();
  for (const auto& buffer : buffers_) {
    buffer::BufferComponent::Stats s = buffer->stats();
    metrics_.fills += s.fills;
    metrics_.source_faults += s.faults;
    metrics_.source_retries += s.retries;
    metrics_.source_backoff_ns += s.backoff_ns;
    metrics_.degraded_holes += s.degraded_holes;
    metrics_.cache_hits += s.cache_hits;
    metrics_.cache_misses += s.cache_misses;
    metrics_.readahead_issued += s.readahead_issued;
    metrics_.readahead_holes += s.readahead_holes;
    metrics_.readahead_hits += s.readahead_hits;
    metrics_.readahead_fills += s.readahead_fills;
    metrics_.readahead_fallbacks += s.readahead_fallbacks;
    metrics_.readahead_orphaned += s.readahead_orphaned;
  }
  for (const auto& channel : channels_) metrics_.lxp += channel->stats();
}

Session::~Session() {
  if (!wrappers_.empty()) NotifyBeforeBlock();
}

void Session::BeginCommand(int64_t budget_ns) {
  for (const auto& buffer : buffers_) buffer->SetCommandBudgetNs(budget_ns);
}

void Session::EndCommand() {
  for (const auto& buffer : buffers_) buffer->SetCommandBudgetNs(-1);
}

Status Session::TakeSourceStatus() {
  Status first = Status::OK();
  for (const auto& buffer : buffers_) {
    Status s = buffer->TakeStatus();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Result<uint64_t> SessionRegistry::Open(const std::string& xmas_text,
                                       const std::string& idempotency_token) {
  // Hint-gated sweep: the unconditional EvictIdle here used to cost a full
  // O(open sessions) registry scan on EVERY Open — ruinous for an open
  // storm against a big table. MaybeEvictIdle's early-out skips the scan
  // unless some session could actually have expired.
  MaybeEvictIdle();
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idempotency_token.empty()) {
      // Replay fast path: a live session already opened under this token
      // is THE answer — the first attempt's response was lost in flight,
      // not its effect.
      auto tok = tokens_.find(idempotency_token);
      if (tok != tokens_.end()) {
        auto live = sessions_.find(tok->second);
        if (live != sessions_.end()) {
          live->second->Touch(NowNs());
          ++counters_.open_replays;
          return tok->second;
        }
        tokens_.erase(tok);
      }
    }
    if (sessions_.size() >= options_.max_sessions) {
      return Status::Unavailable(
          "session table full (" + std::to_string(options_.max_sessions) +
          " open)");
    }
    id = next_id_++;
  }
  // Compile/instantiate — and fill the plan cache — outside the registry
  // lock: opens of different sessions proceed in parallel on different
  // workers, and one slow compile cannot stall unrelated Opens
  // (ConcurrentOpensOverlap in service_test pins this down).
  Result<std::shared_ptr<const mediator::PlanCache::Compiled>> compiled =
      options_.plan_cache->GetOrCompileEntry(xmas_text);
  if (!compiled.ok()) return compiled.status();
  std::shared_ptr<const mediator::PlanNode> plan = compiled.value()->plan;
  const int64_t plan_rewrites = compiled.value()->report.total();
  mediator::ViewShape view_shape = compiled.value()->view_shape;
  // view_match: test the descriptor for subsumption against the cached
  // answer views; on a hit the session is built over the snapshot instead
  // of live wrappers.
  std::shared_ptr<const mediator::AnswerSnapshot> snapshot;
  if (options_.answer_view_cache != nullptr &&
      options_.answer_view_cache->enabled()) {
    mediator::AnswerViewCache::Match match =
        options_.answer_view_cache->TryMatch(view_shape);
    if (match.snapshot != nullptr) {
      snapshot = std::move(match.snapshot);
      plan = std::shared_ptr<const mediator::PlanNode>(std::move(match.plan));
    }
  }
  Result<std::shared_ptr<Session>> session =
      Session::Build(id, *env_, std::move(plan), options_.fault_counters,
                     options_.source_cache, snapshot);
  if (!session.ok()) return session.status();
  session.value()->metrics().plan_rewrites = plan_rewrites;
  if (snapshot == nullptr && options_.answer_view_cache != nullptr &&
      options_.answer_view_cache->enabled() && view_shape.valid) {
    // This session may later donate its answer: pin the answer-view
    // generations of its sources now, mirroring the source-cache pin.
    std::map<std::string, int64_t> pins =
        options_.answer_view_cache->PinGenerations(view_shape.sources);
    session.value()->SetPublishableShape(std::move(view_shape),
                                         std::move(pins));
  }
  int64_t now = NowNs();
  session.value()->Touch(now);
  session.value()->set_open_token(idempotency_token);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idempotency_token.empty()) {
      // Two replays of one token can race past the fast path above and
      // both build; first insert wins, the loser's session is discarded
      // (destroyed outside the lock when `session` leaves scope).
      auto tok = tokens_.find(idempotency_token);
      if (tok != tokens_.end() && sessions_.count(tok->second) != 0) {
        ++counters_.open_replays;
        return tok->second;
      }
      tokens_[idempotency_token] = id;
    }
    if (sessions_.size() >= options_.max_sessions) {
      if (!idempotency_token.empty()) tokens_.erase(idempotency_token);
      return Status::Unavailable("session table full");
    }
    sessions_.emplace(id, session.value());
    ++counters_.opened;
    counters_.open = static_cast<int64_t>(sessions_.size());
  }
  if (options_.idle_ttl_ns >= 0) {
    // Monotone-min update of the expiry hint: this session can expire at
    // now + ttl; an earlier hint (from an older session) stays.
    int64_t expiry = now + options_.idle_ttl_ns;
    int64_t seen = next_expiry_hint_ns_.load(std::memory_order_relaxed);
    while (expiry < seen &&
           !next_expiry_hint_ns_.compare_exchange_weak(
               seen, expiry, std::memory_order_relaxed)) {
    }
  }
  return id;
}

Status SessionRegistry::Close(uint64_t id) {
  std::shared_ptr<Session> victim;  // destroyed outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(id));
  }
  victim = std::move(it->second);
  sessions_.erase(it);
  if (!victim->open_token().empty()) tokens_.erase(victim->open_token());
  ++counters_.closed;
  counters_.open = static_cast<int64_t>(sessions_.size());
  return Status::OK();
}

std::shared_ptr<Session> SessionRegistry::Find(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  it->second->Touch(NowNs());
  return it->second;
}

size_t SessionRegistry::EvictIdle() { return EvictIdleExcept(0); }

size_t SessionRegistry::EvictIdleExcept(uint64_t keep_id) {
  if (options_.idle_ttl_ns < 0) return 0;
  int64_t now = NowNs();
  int64_t cutoff = now - options_.idle_ttl_ns;
  std::vector<std::shared_ptr<Session>> victims;  // destroyed outside lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.sweep_scans;
    int64_t min_active = std::numeric_limits<int64_t>::max();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      int64_t active = it->second->last_active_ns();
      if (active < cutoff && it->first != keep_id) {
        if (!it->second->open_token().empty()) {
          tokens_.erase(it->second->open_token());
        }
        victims.push_back(std::move(it->second));
        it = sessions_.erase(it);
        ++counters_.evicted;
      } else {
        // keep_id is serving a command RIGHT NOW — it is active as of
        // `now` no matter what its (possibly stale) last_active says.
        // Folding the stale value into min_active would store a hint
        // already in the past, and every subsequent command would pay
        // another full no-op scan until the session happened to be
        // touched again.
        if (it->first == keep_id) active = std::max(active, now);
        min_active = std::min(min_active, active);
        ++it;
      }
    }
    counters_.open = static_cast<int64_t>(sessions_.size());
    // Exact recompute of the hint from the survivors (the monotone-min
    // updates elsewhere can only make it conservative, never late).
    next_expiry_hint_ns_.store(
        min_active == std::numeric_limits<int64_t>::max()
            ? min_active
            : net::SaturatingAdd(min_active, options_.idle_ttl_ns),
        std::memory_order_relaxed);
  }
  return victims.size();
}

size_t SessionRegistry::MaybeEvictIdle(uint64_t keep_id) {
  if (options_.idle_ttl_ns < 0) return 0;
  // Lock-free early-out: nothing can have expired before the hint. Touch
  // updates (Find) can only push real expiries later than the hint, so a
  // stale hint causes at most one cheap full sweep, never a missed one.
  if (NowNs() < next_expiry_hint_ns_.load(std::memory_order_relaxed)) {
    return 0;
  }
  return EvictIdleExcept(keep_id);
}

SessionRegistry::Counters SessionRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<uint64_t> SessionRegistry::LiveIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

int64_t SessionRegistry::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace mix::service
