#include "buffer/buffer.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/block_hook.h"
#include "core/check.h"

namespace mix::buffer {

namespace {
int64_t NextInstanceId() {
  static std::atomic<int64_t> counter{1};
  return counter.fetch_add(1);
}

const Atom kBufTag = Atom::Intern("buf");
const char kUnavailableLabel[] = "#unavailable";

/// Charged size of a FillMany request naming `ids`.
int64_t FillManyRequestBytes(const std::vector<std::string>& ids) {
  int64_t bytes = 16;
  for (const std::string& id : ids) bytes += static_cast<int64_t>(id.size());
  return bytes;
}
}  // namespace

BufferComponent::BufferComponent(LxpWrapper* wrapper, std::string uri,
                                 Options options)
    : wrapper_(wrapper),
      uri_(std::move(uri)),
      options_(options),
      instance_(NextInstanceId()),
      retry_(options.retry, options.retry_seed) {
  MIX_CHECK(wrapper_ != nullptr);
}

BufferComponent::~BufferComponent() {
  // Cancellation on close: abandon in-flight readahead futures — their
  // completions own their shared state, so the exchanges finish (or fail at
  // transport teardown) without touching this buffer.
  inflight_.clear();
}

BufferComponent::BNode* BufferComponent::NewNode() {
  arena_.emplace_back();
  BNode* n = &arena_.back();
  n->index = static_cast<int64_t>(by_index_.size());
  by_index_.push_back(n);
  return n;
}

BufferComponent::BNode* BufferComponent::Graft(const Fragment& fragment) {
  BNode* n = NewNode();
  if (fragment.is_hole) {
    n->is_hole = true;
    n->hole_id = fragment.hole_id;
    ++holes_outstanding_;
    // Only the readahead window drains the queue; without one, queuing
    // would keep 8 B per hole ever seen for the buffer's lifetime.
    if (options_.max_in_flight > 0) hole_queue_.push_back(n->index);
    // Freshness was validated before any mutation; this is an invariant.
    MIX_CHECK_MSG(hole_by_id_.emplace(n->hole_id, n->index).second,
                  "wrapper reused a hole id");
  } else {
    n->label = fragment.label;
    n->label_atom = Atom::Intern(n->label);
    ++nodes_buffered_;
    for (const Fragment& c : fragment.children) {
      BNode* child = Graft(c);
      child->parent = n;
      child->pos = static_cast<int32_t>(n->children.size());
      n->children.push_back(child);
    }
  }
  return n;
}

void BufferComponent::Charge(int64_t request_bytes, int64_t response_bytes) {
  if (options_.channel == nullptr) return;
  options_.channel->Send(request_bytes);
  options_.channel->Send(response_bytes);
}

Status BufferComponent::ValidateFragments(
    const FragmentList& list, bool top_level, std::set<std::string>* fresh,
    const std::set<std::string>* consumed) const {
  // Progress condition 1 (top-level only): a non-empty fill may not consist
  // only of holes — that would merely rename the hole, no progress. A
  // *nested* [hole] list simply means "children unexplored".
  if (top_level && !list.empty()) {
    bool any_element = false;
    for (const Fragment& f : list) {
      if (!f.is_hole) any_element = true;
    }
    if (!any_element) {
      return Status::InvalidArgument(
          "LXP fill violation: non-empty fill consists only of holes");
    }
  }
  bool prev_hole = false;
  for (const Fragment& f : list) {
    if (f.is_hole) {
      // Progress condition 2 (everywhere): no two adjacent holes.
      if (prev_hole) {
        return Status::InvalidArgument(
            "LXP fill violation: two adjacent holes");
      }
      prev_hole = true;
      // Freshness: a fill may only *introduce* hole ids — one that is still
      // outstanding, was already introduced in this response, or was
      // consumed by this response is a duplicate.
      if (hole_by_id_.count(f.hole_id) != 0 || fresh->count(f.hole_id) != 0 ||
          (consumed != nullptr && consumed->count(f.hole_id) != 0)) {
        return Status::InvalidArgument(
            "LXP fill violation: reused hole id '" + f.hole_id + "'");
      }
      fresh->insert(f.hole_id);
    } else {
      prev_hole = false;
      Status s =
          ValidateFragments(f.children, /*top_level=*/false, fresh, consumed);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status BufferComponent::ValidateBatch(const std::vector<std::string>& requested,
                                      const HoleFillList& fills) const {
  // Two-phase discipline: the WHOLE response validates before ANY entry is
  // spliced, so a bad batch can never leave the open tree half-updated (a
  // half-applied batch would be unrecoverable under retry).
  std::set<std::string> fresh;     // hole ids introduced by this response
  std::set<std::string> consumed;  // entry ids already refined by it
  size_t outstanding_entries = 0;  // entries refining open-tree holes
  for (const HoleFill& f : fills) {
    if (consumed.count(f.hole_id) != 0) {
      return Status::InvalidArgument(
          "LXP batch violation: hole '" + f.hole_id + "' refined twice");
    }
    if (hole_by_id_.count(f.hole_id) != 0) {
      // An outstanding hole of the open tree; it must be a requested one
      // (checked below, once every requested hole is known answered).
      ++outstanding_entries;
    } else if (fresh.count(f.hole_id) != 0) {
      // A continuation hole introduced by an earlier entry of this response;
      // by the FillMany ordering contract it exists once that entry splices.
      fresh.erase(f.hole_id);
    } else {
      return Status::InvalidArgument(
          "LXP batch violation: entry refines unknown or already-filled "
          "hole '" +
          f.hole_id + "'");
    }
    consumed.insert(f.hole_id);
    Status s =
        ValidateFragments(f.fragments, /*top_level=*/true, &fresh, &consumed);
    if (!s.ok()) return s;
  }
  for (const std::string& id : requested) {
    if (consumed.count(id) == 0) {
      return Status::InvalidArgument(
          "LXP batch violation: requested hole '" + id + "' not answered");
    }
  }
  // Every requested hole is outstanding and answered, so any further
  // open-tree entry refines a hole nobody asked this exchange for.
  if (outstanding_entries > requested.size()) {
    return Status::InvalidArgument(
        "LXP batch violation: entry refines an unrequested hole");
  }
  return Status::OK();
}

Status BufferComponent::RunWithRetry(const std::function<Status()>& op) {
  net::RetryPolicy::Outcome out =
      retry_.Run(op, options_.clock, fill_deadline_ns_);
  faults_ += out.failures;
  retries_ += out.retries;
  backoff_ns_ += out.backoff_ns;
  if (options_.shared_counters != nullptr) {
    options_.shared_counters->Add(out.failures, out.retries, out.backoff_ns);
  }
  return out.status;
}

void BufferComponent::MarkUnavailable(BNode* hole) {
  MIX_CHECK(hole->is_hole);
  hole_by_id_.erase(hole->hole_id);
  OrphanFlight(hole->hole_id);
  hole->is_hole = false;
  hole->unavailable = true;
  hole->label = kUnavailableLabel;
  hole->label_atom = Atom::Intern(hole->label);
  // parent/pos are kept: the node stays addressable in its sibling list, so
  // navigation around it keeps working.
  --holes_outstanding_;
  ++degraded_holes_;
  if (options_.shared_counters != nullptr) {
    options_.shared_counters->AddDegraded(1);
  }
}

BufferComponent::BNode* BufferComponent::SynthesizeUnavailable(BNode* parent) {
  BNode* n = NewNode();
  n->unavailable = true;
  n->label = kUnavailableLabel;
  n->label_atom = Atom::Intern(n->label);
  n->parent = parent;
  n->pos = static_cast<int32_t>(parent->children.size());
  parent->children.push_back(n);
  ++degraded_holes_;
  if (options_.shared_counters != nullptr) {
    options_.shared_counters->AddDegraded(1);
  }
  return n;
}

void BufferComponent::Latch(const Status& status) {
  if (!status.ok() && last_status_.ok()) last_status_ = status;
}

Status BufferComponent::TakeStatus() {
  Status s = std::move(last_status_);
  last_status_ = Status::OK();
  return s;
}

void BufferComponent::SetCommandBudgetNs(int64_t budget_ns) {
  fill_deadline_ns_ = (budget_ns < 0 || options_.clock == nullptr)
                          ? -1
                          : net::SaturatingAdd(options_.clock->now_ns(),
                                               budget_ns);
}

bool BufferComponent::TrySpliceFromCache(BNode* hole) {
  if (options_.source_cache == nullptr) return false;
  std::shared_ptr<const FragmentList> cached =
      options_.source_cache->LookupFill(options_.cache_source,
                                        options_.cache_generation,
                                        hole->hole_id);
  if (cached == nullptr) {
    ++cache_misses_;
    return false;
  }
  // Re-validate against THIS buffer's hole set: the progress conditions
  // held where the entry was published, but hole-id freshness is
  // per-buffer (a non-deterministic wrapper could collide). Treat a
  // failure as a miss and fall through to the wire.
  std::set<std::string> fresh;
  if (!ValidateFragments(*cached, /*top_level=*/true, &fresh,
                         /*consumed=*/nullptr)
           .ok()) {
    ++cache_misses_;
    return false;
  }
  ++fill_count_;
  ++cache_hits_;
  Splice(hole, *cached);
  return true;
}

void BufferComponent::PublishFill(const std::string& hole_id,
                                  FragmentList fragments) {
  if (options_.source_cache == nullptr) return;
  options_.source_cache->PublishFill(options_.cache_source,
                                     options_.cache_generation, hole_id,
                                     std::move(fragments));
}

void BufferComponent::ChargeExchange(const std::vector<std::string>& ids,
                                     const HoleFillList* fills) {
  net::Channel* channel = options_.channel;
  if (channel == nullptr) return;
  channel->SendBatch(FillManyRequestBytes(ids),
                     static_cast<int64_t>(ids.size()));
  if (fills == nullptr) {
    channel->Send(16);  // error response
    return;
  }
  // One entry is a plain fill: the response frame is the entry, so it
  // carries no per-entry framing. An empty (rejected) response still
  // crossed the link as one message.
  const int64_t entries = static_cast<int64_t>(fills->size());
  channel->SendBatch(entries == 1
                         ? FragmentListByteSize(fills->front().fragments)
                         : HoleFillListByteSize(*fills),
                     std::max<int64_t>(entries, 1));
}

Status BufferComponent::AcceptExchange(const std::vector<std::string>& ids,
                                       HoleFillList* fills) {
  Status s = ValidateBatch(ids, *fills);
  if (!s.ok()) return s;
  // The response validated as a whole; application cannot fail.
  ChargeExchange(ids, fills);
  fill_count_ += static_cast<int64_t>(fills->size());
  for (HoleFill& f : *fills) {
    auto it = hole_by_id_.find(f.hole_id);
    MIX_CHECK(it != hole_by_id_.end());
    BNode* hole = by_index_[static_cast<size_t>(it->second)];
    MIX_CHECK(hole->is_hole);
    Splice(hole, f.fragments);
    // Every entry — requested holes AND chased continuations — is a
    // validated fill other sessions can reuse. Publishing only after the
    // splice keeps degraded (#unavailable) answers out of the cache.
    PublishFill(f.hole_id, std::move(f.fragments));
  }
  return Status::OK();
}

Status BufferComponent::FillHolesBatch(const std::vector<BNode*>& holes,
                                       const FillBudget& budget) {
  if (holes.empty()) return Status::OK();
  // Serve what a readahead flight or the shared cache already has; only
  // the remainder crosses the wire. Splicing a hit can only ADD holes
  // elsewhere in the tree, never invalidate the other requested BNodes
  // (arena pointers are stable and each hole splices in place) — but one
  // consumed flight splices every hole it carries, so a hole further down
  // the list may be filled by the time the loop reaches it.
  std::vector<BNode*> wire_holes;
  wire_holes.reserve(holes.size());
  for (BNode* h : holes) {
    if (!h->is_hole) continue;
    if (ConsumeInflight(h) || TrySpliceFromCache(h)) continue;
    wire_holes.push_back(h);
  }
  // A flight consumed after a hole was set aside may have carried it too
  // (consuming one flight issues the next ones).
  std::erase_if(wire_holes, [](const BNode* h) { return !h->is_hole; });
  if (wire_holes.empty()) {
    // The spliced hits may have introduced holes the cache lacks: put them
    // in flight now, not when navigation reaches them.
    MaybeIssueReadahead();
    return Status::OK();
  }
  std::vector<std::string> ids;
  ids.reserve(wire_holes.size());
  for (BNode* h : wire_holes) ids.push_back(h->hole_id);
  Status s = RunWithRetry([&]() {
    HoleFillList fills;
    // Demand fills ride the async submit/complete seam too: over a sync
    // shim this IS TryFillMany inline (deterministic immediate
    // completion); over a native-async transport the exchange goes through
    // the same dispatch machinery as readahead flights.
    NotifyBeforeBlock();
    Status st = wrapper_->BeginFillMany(ids, budget)->Wait(&fills);
    if (!st.ok()) {
      ChargeExchange(ids, nullptr);
      return st;
    }
    st = AcceptExchange(ids, &fills);
    // Every attempt crosses the link, a rejected response included:
    // recovery cost is visible in the channel accounting.
    if (!st.ok()) ChargeExchange(ids, &fills);
    return st;
  });
  if (!s.ok() && s.code() != Status::Code::kDeadlineExceeded) {
    for (BNode* h : wire_holes) {
      if (h->is_hole) MarkUnavailable(h);
    }
  }
  // Overlap continuation chasing with splicing: the batch landed; put the
  // next holes (often the continuations it just introduced) in flight
  // while the caller consumes the spliced data.
  if (s.ok()) MaybeIssueReadahead();
  return s;
}

Status BufferComponent::CompleteChildList(BNode* parent) {
  // One round for the chasing wrappers; non-chasing (default FillMany)
  // wrappers converge by the progress conditions, one level per round.
  Status first_error = Status::OK();
  for (;;) {
    std::vector<BNode*> holes;
    for (BNode* c : parent->children) {
      if (c->is_hole) holes.push_back(c);
    }
    if (holes.empty()) return first_error;
    Status s = FillHolesBatch(holes, FillBudget{});
    if (!s.ok()) {
      if (first_error.ok()) first_error = s;
      // A deadline leaves the holes intact — looping cannot progress. Any
      // other failure degraded them, so the next round sees fewer holes.
      if (s.code() == Status::Code::kDeadlineExceeded) return first_error;
    }
  }
}

void BufferComponent::Splice(BNode* hole, const FragmentList& fragments) {
  // Callers validated `fragments` (progress conditions + freshness) before
  // getting here; Splice itself only maintains structural invariants.
  BNode* parent = hole->parent;
  MIX_CHECK(parent != nullptr);
  size_t at = static_cast<size_t>(hole->pos);
  MIX_CHECK(parent->children[at] == hole);

  std::vector<BNode*> grafted;
  grafted.reserve(fragments.size());
  for (const Fragment& f : fragments) grafted.push_back(Graft(f));

  auto& siblings = parent->children;
  siblings.erase(siblings.begin() + static_cast<std::ptrdiff_t>(at));
  siblings.insert(siblings.begin() + static_cast<std::ptrdiff_t>(at),
                  grafted.begin(), grafted.end());
  for (size_t i = at; i < siblings.size(); ++i) {
    siblings[i]->parent = parent;
    siblings[i]->pos = static_cast<int32_t>(i);
  }
  // The filled hole is gone; mark it so queued readahead skips it. A
  // readahead flight carrying it (filled via a batch instead) is orphaned —
  // its completion owns its own shared state.
  hole_by_id_.erase(hole->hole_id);
  OrphanFlight(hole->hole_id);
  hole->is_hole = false;
  hole->parent = nullptr;
  --holes_outstanding_;
}

Status BufferComponent::ChaseFirst(BNode* parent, size_t pos, BNode** out) {
  *out = nullptr;
  while (pos < parent->children.size()) {
    BNode* n = parent->children[pos];
    if (!n->is_hole) {
      if (n->unavailable) {
        Latch(Status::Unavailable(
            "subtree unavailable: fill retries exhausted"));
      }
      *out = n;
      return Status::OK();
    }
    // Demand paging: "I need the first element" — one exchange, which a
    // readahead flight (always bounded by fill count) never looks like.
    Status s = FillHolesBatch({n}, FillBudget{/*elements=*/1, /*fills=*/-1});
    if (!s.ok()) {
      // Still a hole: the deadline cut the fill short and the position
      // cannot be resolved this command. Degraded: the hole became an
      // unavailable node, re-examined (and returned) by the next iteration.
      if (n->is_hole) return s;
      Latch(s);
    }
    // The list changed in place; re-examine the same position.
  }
  return Status::OK();
}

void BufferComponent::MaybeIssueReadahead() {
  if (options_.max_in_flight <= 0) return;
  if (fill_deadline_ns_ >= 0 && options_.clock != nullptr &&
      options_.clock->now_ns() >= fill_deadline_ns_) {
    return;  // command budget gone — don't speculate on its behalf
  }
  while (flights_in_air_ < options_.max_in_flight && !hole_queue_.empty()) {
    // Breadth: the flight takes up to chase_depth_ queued holes, and its
    // budget of chase_depth_ fills serves them all before it chases any
    // continuation — one slow-started budget for breadth and depth.
    auto flight = std::make_shared<Flight>();
    while (static_cast<int64_t>(flight->holes.size()) < chase_depth_ &&
           !hole_queue_.empty()) {
      BNode* candidate = by_index_[static_cast<size_t>(hole_queue_.front())];
      hole_queue_.pop_front();
      if (!candidate->is_hole) continue;  // filled or degraded meanwhile
      if (options_.source_cache != nullptr &&
          options_.source_cache->LookupFill(options_.cache_source,
                                            options_.cache_generation,
                                            candidate->hole_id) != nullptr) {
        // Already in memory: a flight would only make navigation wait on
        // the wire for it (ConsumeInflight runs before the cache lookup).
        // The demand path splices it through TrySpliceFromCache.
        continue;
      }
      flight->holes.push_back(candidate->hole_id);
    }
    if (flight->holes.empty()) return;  // the queue held nothing to fly
    ++readahead_issued_;
    readahead_holes_ += static_cast<int64_t>(flight->holes.size());
    // Over a synchronous wrapper a submit is the exchange itself.
    NotifyBeforeBlock();
    // A chased flight keeps the wrapper's fragment boundaries (ChaseFills
    // is non-adaptive under a fill budget), so hole ids and fills are the
    // ones a window-0 buffer sees.
    flight->future = wrapper_->BeginFillMany(
        flight->holes, FillBudget{/*elements=*/-1, chase_depth_});
    for (const std::string& id : flight->holes) inflight_.emplace(id, flight);
    ++flights_in_air_;
  }
}

void BufferComponent::DropFlight(const Flight& flight) {
  for (const std::string& id : flight.holes) inflight_.erase(id);
  --flights_in_air_;
}

void BufferComponent::OrphanFlight(const std::string& hole_id) {
  if (inflight_.empty()) return;
  auto it = inflight_.find(hole_id);
  if (it == inflight_.end()) return;
  std::shared_ptr<Flight> flight = it->second;
  DropFlight(*flight);
  ++readahead_orphaned_;
}

bool BufferComponent::ConsumeInflight(BNode* hole) {
  if (inflight_.empty()) return false;
  auto it = inflight_.find(hole->hole_id);
  if (it == inflight_.end()) return false;
  // Every hole of the flight is still outstanding (filling or degrading
  // one orphans the flight), and from here on no other path may meet it.
  std::shared_ptr<Flight> flight = it->second;
  DropFlight(*flight);
  if (!flight->future->Ready() && fill_deadline_ns_ >= 0 &&
      options_.clock != nullptr &&
      options_.clock->now_ns() >= fill_deadline_ns_) {
    // Deadline propagation: the command budget is already gone, so don't
    // block on the wire. The sync path fails with kDeadlineExceeded and
    // leaves the hole intact for a better-funded command.
    ++readahead_fallbacks_;
    chase_depth_ = 1;
    return false;
  }
  HoleFillList fills;
  if (!flight->future->Ready()) NotifyBeforeBlock();
  Status s = flight->future->Wait(&fills);
  // Charged like a demand batch on the same holes (which may chase too):
  // the consumed flight substitutes for the demand exchange it saved.
  if (s.ok()) s = AcceptExchange(flight->holes, &fills);
  if (!s.ok()) {
    // Failed or stale flight: fall back to the sync demand path, which
    // owns retry/degradation semantics — answers stay byte-identical to a
    // readahead-off run. Speculation starts over from one fill.
    ++readahead_fallbacks_;
    chase_depth_ = 1;
    return false;
  }
  // The window found the holes missing from the cache when it issued the
  // flight; a fallback counts each miss in TrySpliceFromCache instead.
  if (options_.source_cache != nullptr) {
    cache_misses_ += static_cast<int64_t>(flight->holes.size());
  }
  ++readahead_hits_;
  readahead_fills_ += static_cast<int64_t>(fills.size());
  // Slow start: the flights keep being consumed, so the next ones may
  // carry more holes and run further along their chains.
  chase_depth_ = std::min<int64_t>(chase_depth_ * 2, options_.max_in_flight);
  MaybeIssueReadahead();
  return true;
}

Status BufferComponent::EnsureRoot() {
  if (initialized_) return Status::OK();
  initialized_ = true;
  std::string root_id;
  bool cached_root = false;
  if (options_.source_cache != nullptr) {
    // get_root is deterministic per (source, generation); the first session
    // to bootstrap pays the exchange, every later one starts warm.
    if (options_.source_cache->LookupRoot(options_.cache_source,
                                          options_.cache_generation, uri_,
                                          &root_id) &&
        !root_id.empty()) {
      cached_root = true;
      ++cache_hits_;
    } else {
      ++cache_misses_;
    }
  }
  Status s = Status::OK();
  if (!cached_root) s = RunWithRetry([&]() {
    root_id.clear();
    NotifyBeforeBlock();
    Status st = wrapper_->TryGetRoot(uri_, &root_id);
    // get_root is one small request/response exchange.
    Charge(16 + static_cast<int64_t>(uri_.size()),
           16 + static_cast<int64_t>(root_id.size()));
    if (!st.ok()) return st;
    if (root_id.empty()) {
      return Status::InvalidArgument("get_root returned an empty hole id");
    }
    return Status::OK();
  });
  if (!cached_root && s.ok() && options_.source_cache != nullptr) {
    options_.source_cache->PublishRoot(options_.cache_source,
                                       options_.cache_generation, uri_,
                                       root_id);
  }
  super_root_ = NewNode();
  super_root_->label = "#super-root";
  super_root_->label_atom = Atom::Intern(super_root_->label);
  if (!s.ok()) {
    // Bootstrap failure degrades the whole view — without a root hole id
    // there is nothing to retry against later, so even a deadline cannot
    // leave the view "pending". The cause is the returned status.
    SynthesizeUnavailable(super_root_);
    return s;
  }
  BNode* hole = NewNode();
  hole->is_hole = true;
  hole->hole_id = std::move(root_id);
  hole->parent = super_root_;
  hole->pos = 0;
  super_root_->children.push_back(hole);
  ++holes_outstanding_;
  if (options_.max_in_flight > 0) hole_queue_.push_back(hole->index);
  hole_by_id_.emplace(hole->hole_id, hole->index);
  return Status::OK();
}

NodeId BufferComponent::MakeId(const BNode* n) const {
  return NodeId(kBufTag, instance_, n->index);
}

BufferComponent::BNode* BufferComponent::Resolve(const NodeId& p) const {
  // Invalid, foreign, and stale ids resolve to nullptr (the caller answers
  // ⊥ and latches) instead of aborting: ids reach the buffer from the
  // mediator — which may legitimately hold the invalid NodeId a
  // deadline-cut Root() returned — and, through it, from remote clients,
  // neither of which may be able to kill the process with a bad handle.
  if (!p.valid() || p.tag_atom() != kBufTag || p.IntAt(0) != instance_) {
    return nullptr;
  }
  int64_t index = p.IntAt(1);
  if (index < 0 || index >= static_cast<int64_t>(by_index_.size())) {
    return nullptr;
  }
  BNode* n = by_index_[static_cast<size_t>(index)];
  // Hole indices are internal bookkeeping, never handed out via MakeId.
  if (n->is_hole) return nullptr;
  return n;
}

Status BufferComponent::BadIdStatus() {
  return Status::InvalidArgument(
      "foreign or stale node id passed to BufferComponent");
}

NodeId BufferComponent::Root() {
  Status s = EnsureRoot();
  if (!s.ok()) Latch(s);
  BNode* root = nullptr;
  Status cs = ChaseFirst(super_root_, 0, &root);
  if (!cs.ok()) {
    // Deadline with the root hole intact: nothing to hand out yet; the
    // invalid NodeId plus the latched status is the one unavoidable ⊥.
    Latch(cs);
    return NodeId();
  }
  if (root == nullptr) {
    // Protocol violation (fill emptied the root list) — degrade, don't die.
    Latch(Status::InvalidArgument("LXP source exported an empty view"));
    root = SynthesizeUnavailable(super_root_);
  }
  return MakeId(root);
}

std::optional<NodeId> BufferComponent::Down(const NodeId& p) {
  BNode* n = Resolve(p);
  if (n == nullptr) {
    Latch(BadIdStatus());
    return std::nullopt;
  }
  if (n->unavailable) {
    Latch(Status::Unavailable("subtree unavailable: fill retries exhausted"));
    return std::nullopt;
  }
  BNode* child = nullptr;
  Status s = ChaseFirst(n, 0, &child);
  if (!s.ok()) Latch(s);
  if (child == nullptr) return std::nullopt;
  return MakeId(child);
}

std::optional<NodeId> BufferComponent::Right(const NodeId& p) {
  BNode* n = Resolve(p);
  if (n == nullptr) {
    Latch(BadIdStatus());
    return std::nullopt;
  }
  MIX_CHECK(n->parent != nullptr);
  BNode* sibling = nullptr;
  Status s = ChaseFirst(n->parent, static_cast<size_t>(n->pos) + 1, &sibling);
  if (!s.ok()) Latch(s);
  if (sibling == nullptr) return std::nullopt;
  return MakeId(sibling);
}

Label BufferComponent::Fetch(const NodeId& p) {
  BNode* n = Resolve(p);
  if (n == nullptr) {
    Latch(BadIdStatus());
    return Label();
  }
  if (n->unavailable) {
    Latch(Status::Unavailable("node unavailable: fill retries exhausted"));
  }
  return n->label;
}

Atom BufferComponent::FetchAtom(const NodeId& p) {
  BNode* n = Resolve(p);
  if (n == nullptr) {
    Latch(BadIdStatus());
    return Atom();
  }
  if (n->unavailable) {
    Latch(Status::Unavailable("node unavailable: fill retries exhausted"));
  }
  return n->label_atom;
}

void BufferComponent::DownAll(const NodeId& p, std::vector<NodeId>* out) {
  BNode* n = Resolve(p);
  if (n == nullptr) {
    Latch(BadIdStatus());
    return;
  }
  if (n->unavailable) {
    Latch(Status::Unavailable("subtree unavailable: fill retries exhausted"));
    return;
  }
  Status s = CompleteChildList(n);
  if (!s.ok()) Latch(s);
  out->reserve(out->size() + n->children.size());
  for (BNode* c : n->children) {
    if (c->is_hole) continue;  // deadline remnant; latched above
    if (c->unavailable) {
      Latch(Status::Unavailable("child unavailable: fill retries exhausted"));
    }
    out->push_back(MakeId(c));
  }
}

void BufferComponent::NextSiblings(const NodeId& p, int64_t limit,
                                   std::vector<NodeId>* out) {
  if (limit == 0) return;
  BNode* n = Resolve(p);
  if (n == nullptr) {
    Latch(BadIdStatus());
    return;
  }
  MIX_CHECK(n->parent != nullptr);
  BNode* parent = n->parent;
  size_t pos = static_cast<size_t>(n->pos) + 1;
  int64_t taken = 0;
  while (pos < parent->children.size() && (limit < 0 || taken < limit)) {
    BNode* sib = parent->children[pos];
    if (sib->is_hole) {
      FillBudget budget;  // default: refine completely
      if (limit >= 0) {
        // Ask only for the elements still missing: siblings already
        // buffered beyond the hole count against the limit too, so the
        // batched page ships no more bytes than the one-fill-at-a-time
        // walk would have.
        int64_t buffered_after = 0;
        for (size_t i = pos + 1; i < parent->children.size(); ++i) {
          if (!parent->children[i]->is_hole) ++buffered_after;
        }
        budget.elements = std::max<int64_t>(limit - taken - buffered_after, 0);
      }
      Status s = FillHolesBatch({sib}, budget);
      if (!s.ok()) {
        Latch(s);
        if (sib->is_hole) break;  // deadline: cannot advance past the hole
      }
      continue;  // the list changed in place; re-examine the same position
    }
    if (sib->unavailable) {
      Latch(
          Status::Unavailable("sibling unavailable: fill retries exhausted"));
    }
    out->push_back(MakeId(sib));
    ++taken;
    ++pos;
  }
}

void BufferComponent::FetchSubtreeOf(BNode* n, int32_t depth_here,
                                     int64_t depth_limit,
                                     std::vector<SubtreeEntry>* out) {
  const size_t slot = out->size();
  out->push_back(SubtreeEntry{n->label_atom, depth_here, false, NodeId()});
  if (n->unavailable) {
    // Emitted as a leaf marker; nothing below it can be fetched.
    Latch(Status::Unavailable("subtree unavailable: fill retries exhausted"));
    return;
  }
  if (depth_limit >= 0 && depth_here >= depth_limit) {
    // Probe exactly like a node-at-a-time d at the cutoff would: resolve
    // leading holes until the first element (or an empty list) is known.
    BNode* first = nullptr;
    Status s = ChaseFirst(n, 0, &first);
    if (!s.ok()) Latch(s);
    if (first != nullptr) {
      (*out)[slot].truncated = true;
      (*out)[slot].id = MakeId(n);
    }
    return;
  }
  Status s = CompleteChildList(n);
  if (!s.ok()) Latch(s);
  // Snapshot: CompleteChildList on a descendant cannot reallocate this
  // vector (the list is already hole-free), but keep indices, not
  // iterators, for clarity.
  for (size_t i = 0; i < n->children.size(); ++i) {
    if (n->children[i]->is_hole) continue;  // deadline remnant
    FetchSubtreeOf(n->children[i], depth_here + 1, depth_limit, out);
  }
}

void BufferComponent::FetchSubtree(const NodeId& p, int64_t depth,
                                   std::vector<SubtreeEntry>* out) {
  BNode* n = Resolve(p);
  if (n == nullptr) {
    Latch(BadIdStatus());
    return;
  }
  FetchSubtreeOf(n, 0, depth, out);
}

std::string BufferComponent::TermOf(const BNode* n) const {
  if (n->is_hole) return "hole[" + n->hole_id + "]";
  if (n->children.empty()) return n->label;
  std::string out = n->label + "[";
  bool first = true;
  for (const BNode* c : n->children) {
    if (!first) out += ",";
    first = false;
    out += TermOf(c);
  }
  out += "]";
  return out;
}

std::string BufferComponent::OpenTreeTerm() {
  EnsureRoot();
  std::string out = "[";
  bool first = true;
  for (const BNode* c : super_root_->children) {
    if (!first) out += ",";
    first = false;
    out += TermOf(c);
  }
  out += "]";
  return out;
}

}  // namespace mix::buffer
