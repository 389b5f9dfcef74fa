// The generic buffer component (paper Section 4, Figs. 7–8).
//
// The buffer sits between a lazy mediator (which speaks fine-grained
// DOM-VXD navigations) and a wrapper (which speaks coarse-grained LXP
// fills). It maintains an *open tree* — a partial image of the wrapper's
// XML view whose unexplored parts are holes — and answers navigation
// commands from the buffered tree when possible. When a navigation "hits a
// hole", the buffer issues fill(hole[id]) and grafts the returned fragment
// list in place of the hole (Fig. 8's d(p)/chase_first, generalized to the
// most liberal LXP policy, where fills may contain holes at arbitrary
// positions).
//
// One generic implementation serves every wrapper — the modularity argument
// of Section 4 against "fat" wrappers with ad-hoc buffering.
//
// Run-ahead (Section 4's "asynchronous prefetching strategy", DESIGN.md §4
// "Async fill engine") has exactly one mechanism: the readahead window
// (Options::max_in_flight = W). After a fill the buffer keeps up to W
// FillFuture exchanges in flight. Each flight carries up to `chase depth`
// queued holes and asks the wrapper for up to `chase depth` fills: the
// requested holes first, then continuation fills along their chains with
// what the budget leaves. A command that reaches any hole of a flight
// splices the whole completed response instead of blocking on a new
// exchange. The chase depth slow-starts: 1 for the first flight, doubled by
// every consumed flight up to W, back to 1 when a flight has to fall back to
// the demand path. So a scan of a continuation chain (a relational table: a
// chunk of rows plus a hole per fill) pays one exchange per up to W fills,
// and so does a walk over nested holes that have no chain (XML elements
// whose children are unexplored). Holes the shared fragment cache already
// holds get no flight. A wrapper that pushes fills on its own initiative
// (the paper's asynchronous LXP variant) is a native-async wrapper
// completing such a future early.
//
// Fault handling (DESIGN.md §4 "Fault handling & degradation"): every
// wrapper exchange goes through the Status-returning Try* face of
// LxpWrapper, is validated BEFORE any mutation (progress conditions,
// hole-id freshness, batch completeness), and runs under a RetryPolicy —
// bounded attempts, exponential backoff charged to the session's SimClock,
// capped by the per-command virtual deadline (SetCommandBudgetNs). A
// malformed or failed response can therefore never abort the process or
// corrupt the open tree:
//   * transient failures are retried and, on success, the answer is
//     byte-identical to a fault-free run;
//   * a fill that exhausts its attempts (or fails non-retryably) degrades
//     the hole into an *unavailable* node — a real tree node labeled
//     "#unavailable" with no children — and the rest of the tree stays
//     navigable;
//   * a fill abandoned because its backoff would overrun the command
//     deadline leaves the hole intact (retryable by a later command).
// Navigable has no Status channel (the paper's d/r/f return node-or-⊥), so
// the triggering error is latched in last_status()/TakeStatus() — the
// service layer drains it per command into a typed error frame. The only
// navigation that cannot produce a node at all (Root() with the bootstrap
// fill still pending at a deadline) returns an invalid NodeId plus a
// latched kDeadlineExceeded; every other degraded path yields real,
// resolvable ids.
#ifndef MIX_BUFFER_BUFFER_H_
#define MIX_BUFFER_BUFFER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "buffer/async_fill.h"
#include "buffer/lxp.h"
#include "buffer/source_cache.h"
#include "core/navigable.h"
#include "core/status.h"
#include "net/fault.h"
#include "net/sim_net.h"

namespace mix::buffer {

class BufferComponent : public Navigable {
 public:
  struct Options {
    /// Mediator↔wrapper link; fills are charged here (request + response).
    /// nullptr disables accounting.
    net::Channel* channel = nullptr;

    /// Retry discipline for failed wrapper exchanges (default: 1 attempt —
    /// no retry, matching the pre-fault-layer behavior cost-wise).
    net::RetryOptions retry;
    /// Seed for the retry jitter (deterministic per buffer).
    uint64_t retry_seed = 0x6d69782d72747279ull;
    /// Clock that funds retry backoff and the per-command deadline; null
    /// disables both (attempts are still bounded by `retry.max_attempts`).
    /// Typically the same SimClock behind `channel`.
    net::SimClock* clock = nullptr;
    /// Optional service-wide fault counters (atomics) this buffer also
    /// bumps — how per-session recovery aggregates into mixd metrics.
    net::FaultCounters* shared_counters = nullptr;

    /// Cross-session shared fragment cache (DESIGN.md §4 "Shared
    /// source-fragment & plan caches"); nullptr disables. When set, fills
    /// are looked up under (cache_source, cache_generation, hole id) before
    /// any wrapper exchange, and validated fills are published after
    /// splicing. Degraded `#unavailable` splices are never published.
    SourceCache* source_cache = nullptr;
    /// Cache key namespace — the service environment's source name.
    std::string cache_source;
    /// Generation the session pinned at open: entries of other generations
    /// are unreachable, preserving the E9 freshness/churn semantics; the
    /// buffer holds the pin, so a bump keeps this generation's entries.
    int64_t cache_generation = 0;

    /// Readahead window W (see the file comment): keep up to W fill
    /// exchanges in flight via LxpWrapper::BeginFillMany, each carrying up
    /// to W queued holes and asking for up to W fills in all — its holes
    /// first, then continuation fills along their chains (slow start: the
    /// chase depth, which bounds both, begins at 1 and doubles per consumed
    /// flight). Flights overlap splicing and, across sources, one buffer's
    /// flights overlap the other's demand fills. A chased flight is
    /// non-adaptive in the wrapper (LxpWrapper::ChaseFills), so hole ids and
    /// fragment boundaries are the ones window 0 sees. Over a synchronous
    /// wrapper a flight resolves before the next command starts, so the
    /// window is deterministic there. 0 disables (the default:
    /// message-count assertions in existing tests stay exact). Failed, stale
    /// or malformed flights fall back to the ordinary retry/degradation
    /// demand path, so answers are byte-identical with the window on or off.
    int max_in_flight = 0;
  };

  /// `wrapper` is not owned and must outlive the buffer.
  BufferComponent(LxpWrapper* wrapper, std::string uri, Options options);
  BufferComponent(LxpWrapper* wrapper, std::string uri)
      : BufferComponent(wrapper, std::move(uri), Options()) {}

  /// Abandons outstanding readahead futures — their completions hold their
  /// own shared state, so no exchange dangles into freed memory.
  ~BufferComponent() override;

  NodeId Root() override;
  std::optional<NodeId> Down(const NodeId& p) override;
  std::optional<NodeId> Right(const NodeId& p) override;
  Label Fetch(const NodeId& p) override;
  /// O(1): returns the atom interned when the fragment was grafted.
  Atom FetchAtom(const NodeId& p) override;

  /// Vectored commands: outstanding holes on the traversed lists are
  /// coalesced into FillMany batches, so completing a child list (or a
  /// sibling page, or a whole subtree) costs one request/response exchange
  /// on the demand channel instead of one per hole.
  void DownAll(const NodeId& p, std::vector<NodeId>* out) override;
  void NextSiblings(const NodeId& p, int64_t limit,
                    std::vector<NodeId>* out) override;
  void FetchSubtree(const NodeId& p, int64_t depth,
                    std::vector<SubtreeEntry>* out) override;

  /// Number of fills successfully applied so far (demand + readahead).
  int64_t fill_count() const { return fill_count_; }
  /// Elements currently materialized in the open tree.
  int64_t nodes_buffered() const { return nodes_buffered_; }
  /// Unfilled holes currently present.
  int64_t holes_outstanding() const { return holes_outstanding_; }
  /// Holes degraded into unavailable nodes after exhausted/permanent fill
  /// failures.
  int64_t degraded_holes() const { return degraded_holes_; }

  /// First error latched by navigation since the last TakeStatus() — the
  /// typed face of ⊥/"#unavailable" answers. OK when navigation has been
  /// clean.
  const Status& last_status() const { return last_status_; }
  /// Returns and clears the latch (one typed error per service command).
  Status TakeStatus();

  /// Arms the per-command fill deadline: demand fills issued by subsequent
  /// commands may spend at most `budget_ns` of virtual time (clock +
  /// backoff) before failing with kDeadlineExceeded; < 0 (or a null
  /// Options::clock) disarms. The service layer calls this with the
  /// executor deadline's remaining budget, 1 real ns = 1 virtual ns.
  void SetCommandBudgetNs(int64_t budget_ns);

  /// One-call snapshot of the counters above — what a per-session metrics
  /// sweep (service layer) reads per buffered source.
  struct Stats {
    int64_t fills = 0;
    int64_t nodes_buffered = 0;
    int64_t holes_outstanding = 0;
    /// Fault/recovery counters: failed wrapper exchanges observed, retries
    /// issued, virtual backoff time spent, holes degraded to unavailable.
    int64_t faults = 0;
    int64_t retries = 0;
    int64_t backoff_ns = 0;
    int64_t degraded_holes = 0;
    /// Shared-cache traffic: fills (and roots) answered from the shared
    /// cache instead of a wrapper exchange, and lookups that went to the
    /// wire. Zero when Options::source_cache is null.
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    /// Readahead window: exchanges put in flight and the holes they asked
    /// for, flights consumed and the fills they spliced (a flight carries
    /// its holes plus the continuations it chased), flights that had to
    /// fall back to the sync demand path (failure/staleness/deadline), and
    /// flights dropped unread because another path filled or degraded one
    /// of their holes first.
    int64_t readahead_issued = 0;
    int64_t readahead_holes = 0;
    int64_t readahead_hits = 0;
    int64_t readahead_fills = 0;
    int64_t readahead_fallbacks = 0;
    int64_t readahead_orphaned = 0;
  };
  Stats stats() const {
    return {fill_count_,       nodes_buffered_,      holes_outstanding_,
            faults_,           retries_,             backoff_ns_,
            degraded_holes_,   cache_hits_,          cache_misses_,
            readahead_issued_, readahead_holes_,     readahead_hits_,
            readahead_fills_,  readahead_fallbacks_, readahead_orphaned_};
  }

  /// Holes queued for the readahead window (always 0 when
  /// Options::max_in_flight is 0: nothing would ever drain the queue).
  size_t readahead_queue_size() const { return hole_queue_.size(); }

  /// Term rendering of the current open tree (root list), holes included —
  /// lets tests assert the refinement sequence of Ex. 7.
  std::string OpenTreeTerm();

 private:
  struct BNode {
    bool is_hole = false;
    /// A hole whose fill budget is exhausted: a real (navigable) node
    /// labeled "#unavailable" with no children.
    bool unavailable = false;
    std::string hole_id;
    std::string label;
    /// `label`, interned at graft time — answers f without re-hashing.
    Atom label_atom;
    std::vector<BNode*> children;
    BNode* parent = nullptr;
    int32_t pos = 0;
    int64_t index = 0;
  };

  BNode* NewNode();
  BNode* Graft(const Fragment& fragment);
  /// Splices `fragments` in place of `hole` and renumbers positions. The
  /// fragments must already have passed validation.
  void Splice(BNode* hole, const FragmentList& fragments);

  // --- fill-path validation (before ANY mutation) ---
  /// Hole ids of one response, as views into it (the response outlives
  /// its validation).
  using ResponseIds = std::unordered_set<std::string_view>;
  /// Progress conditions + hole-id freshness for one fragment list.
  /// `fresh` accumulates new hole ids across a response; `consumed` (may be
  /// null) holds batch-entry ids already refined in the same response.
  Status ValidateFragments(const FragmentList& list, bool top_level,
                           ResponseIds* fresh,
                           const ResponseIds* consumed) const;
  /// One complete FillMany response: every entry refines, at most once,
  /// either a requested hole or a continuation hole an earlier entry
  /// introduced; every requested hole is answered; every fragment list is
  /// valid. Rejecting here is what keeps a malicious remote source from
  /// aborting mixd (the old MIX_CHECKs) — the batch is applied only after
  /// it validated as a whole.
  Status ValidateBatch(const std::vector<std::string>& requested,
                       const HoleFillList& fills) const;

  // --- Status-returning fill internals ---
  /// Runs one wrapper exchange under the retry policy, charging backoff to
  /// Options::clock and respecting the command deadline. Folds the outcome
  /// into the fault counters.
  Status RunWithRetry(const std::function<Status()>& op);
  /// The one fill exchange. Serves `holes` from consumed readahead flights
  /// and the shared cache where it can, and sends the rest as one
  /// BeginFillMany under the retry policy. A single hole's demand fill is
  /// the one-hole case with budget {elements = 1}; readahead flights are
  /// always fill-bounded, so the two stay distinguishable to a wrapper.
  /// Holes whose exchange fails for good degrade to #unavailable.
  Status FillHolesBatch(const std::vector<BNode*>& holes,
                        const FillBudget& budget);
  /// Charges one exchange to Options::channel: the request naming `ids`
  /// and the response `fills` (nullptr: a small error frame). A one-entry
  /// response is charged as a plain fill, without per-entry framing.
  void ChargeExchange(const std::vector<std::string>& ids,
                      const HoleFillList* fills);
  /// Validates the response to an exchange that asked for `ids` and, when
  /// it passes, charges it, counts its entries as fills, splices every
  /// entry and publishes it to the shared cache. The entries' fragments
  /// are moved out; the list keeps its length. A rejected response leaves
  /// the tree and the channel untouched.
  Status AcceptExchange(const std::vector<std::string>& ids,
                        HoleFillList* fills);
  /// Batch-fills until `parent`'s child list contains no holes (degraded
  /// holes count as done). Returns the first error; stops early only on
  /// kDeadlineExceeded (nothing was degraded, so looping cannot progress).
  Status CompleteChildList(BNode* parent);
  /// Pre-order emit of `n`'s subtree, completing child lists as it goes.
  void FetchSubtreeOf(BNode* n, int32_t depth_here, int64_t depth_limit,
                      std::vector<SubtreeEntry>* out);
  /// First element at or after `pos` in `parent`'s list, filling holes as
  /// needed (Fig. 8 chase_first). *out = nullptr if the list is exhausted
  /// (OK) or the blocking fill failed without degrading (error returned).
  Status ChaseFirst(BNode* parent, size_t pos, BNode** out);
  /// Tries to answer `hole` from the shared cache: on a hit the cached
  /// list is re-validated against THIS tree's hole set (freshness is
  /// per-buffer), spliced, and counted as a fill — no wrapper exchange, no
  /// channel charge. False on miss/no cache/validation failure.
  bool TrySpliceFromCache(BNode* hole);
  /// Publishes a validated+spliced fill to the shared cache (no-op without
  /// one). Never called for degraded splices.
  void PublishFill(const std::string& hole_id, FragmentList fragments);
  /// Tops the readahead window up: while fewer than Options::max_in_flight
  /// flights are pending, draws up to chase_depth_ outstanding holes from
  /// the FIFO and puts them in flight as one BeginFillMany exchange with a
  /// budget of chase_depth_ fills. A hole the shared cache holds gets no
  /// flight: the demand path splices it from the cache instead. A
  /// transport with a dispatch thread coalesces the queued submits into one
  /// pipelined batch on the wire.
  void MaybeIssueReadahead();
  /// Answers `hole` from the flight carrying it: unmaps every hole of that
  /// flight, waits (unless the command deadline already passed), validates
  /// the response — all the flight's holes plus the continuations it
  /// chased — against the CURRENT hole set and splices every entry through
  /// the same path as a demand batch; doubles the chase depth. False → the
  /// chase depth drops to 1 and the caller falls back to the sync demand
  /// path (which owns retry/degradation semantics).
  bool ConsumeInflight(BNode* hole);
  /// One readahead exchange: the holes it asked for, in request order, and
  /// its completion handle.
  struct Flight {
    std::vector<std::string> holes;
    std::shared_ptr<FillFuture> future;
  };
  /// Unmaps every hole of `flight` from inflight_ and frees its window slot
  /// (a pending future completes into its own shared state).
  void DropFlight(const Flight& flight);
  /// Another path filled or degraded `hole_id`: the flight carrying it (if
  /// any) would answer a hole that is gone, so it is dropped whole, unread —
  /// counted in readahead_orphaned, not as a fallback.
  void OrphanFlight(const std::string& hole_id);
  /// Bootstraps the root hole. Never fails hard: a get_root that exhausts
  /// its retries degrades the whole view to one unavailable root node (the
  /// returned Status carries the cause for latching).
  Status EnsureRoot();
  /// Turns an exhausted hole into an unavailable node in place.
  void MarkUnavailable(BNode* hole);
  /// Appends a synthetic unavailable node to `parent`'s child list (root
  /// bootstrap failure / empty-view protocol violation).
  BNode* SynthesizeUnavailable(BNode* parent);
  /// First-error latch (kept until TakeStatus).
  void Latch(const Status& status);

  /// nullptr for invalid, foreign, stale, or hole-internal ids — the public
  /// navigation methods answer ⊥ and latch BadIdStatus() instead of
  /// aborting (ids arrive from the mediator and, through it, from remote
  /// clients; neither may be able to kill the process with a bad handle).
  BNode* Resolve(const NodeId& p) const;
  static Status BadIdStatus();
  NodeId MakeId(const BNode* n) const;
  void Charge(int64_t request_bytes, int64_t response_bytes);
  std::string TermOf(const BNode* n) const;

  LxpWrapper* wrapper_;
  std::string uri_;
  Options options_;
  int64_t instance_;
  net::RetryPolicy retry_;
  /// The pin of (cache_source, cache_generation); unused without a source
  /// cache.
  SourceCache::Pin cache_pin_;

  std::deque<BNode> arena_;
  std::vector<BNode*> by_index_;
  BNode* super_root_ = nullptr;  ///< sentinel; its children are the root list.
  bool initialized_ = false;

  /// FIFO of outstanding hole indices for the readahead window; only fed
  /// when Options::max_in_flight > 0.
  std::deque<int64_t> hole_queue_;
  /// Outstanding holes by wrapper id (batch entries and freshness checks).
  std::map<std::string, int64_t> hole_by_id_;
  /// In-flight readahead exchanges by requested hole id: every hole of a
  /// flight maps to the same shared Flight. All of a flight's entries are
  /// erased together, when it is consumed or when one of its holes is
  /// filled/degraded by another path (the orphaned future completes into
  /// its own shared state).
  std::map<std::string, std::shared_ptr<Flight>> inflight_;
  /// Flights in inflight_ — the window's occupancy.
  int64_t flights_in_air_ = 0;
  /// Holes each new readahead flight may carry and fills it may ask for:
  /// 1 after construction and after a fallback, doubled per consumed flight
  /// up to max_in_flight.
  int64_t chase_depth_ = 1;

  int64_t fill_count_ = 0;
  int64_t nodes_buffered_ = 0;
  int64_t holes_outstanding_ = 0;
  int64_t faults_ = 0;
  int64_t retries_ = 0;
  int64_t backoff_ns_ = 0;
  int64_t degraded_holes_ = 0;
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
  int64_t readahead_issued_ = 0;
  int64_t readahead_holes_ = 0;
  int64_t readahead_hits_ = 0;
  int64_t readahead_fills_ = 0;
  int64_t readahead_fallbacks_ = 0;
  int64_t readahead_orphaned_ = 0;
  /// Absolute virtual deadline for demand fills (-1: none).
  int64_t fill_deadline_ns_ = -1;
  Status last_status_;
};

}  // namespace mix::buffer

#endif  // MIX_BUFFER_BUFFER_H_
