// Cross-session answer-view cache (DESIGN.md §4 "Answer-view cache").
//
// PR 5's SourceCache shares raw *source fragments*; this cache shares
// *answers*: a registry of canonical plan-IR view descriptors, each bound
// to an immutable, navigation-complete snapshot of the originating
// session's materialized answer (exported via one full-depth FetchSubtree
// and published only when fully filled — degraded `#unavailable` splices
// and truncated exports are rejected). A new `Session::Open` tests its
// plan for subsumption against the cached descriptors and, on a hit, is
// served from the snapshot through an ordinary `CachedViewSourceOp` with
// ZERO wrapper exchanges.
//
// Subsumption is deliberately conservative — only provably-sound cases,
// in the spirit of view-based XPath rewriting (Cautis et al.):
//
//   1. Identical canonical plans (after stripping a transparent project
//      under tupleDestroy) → replay the snapshot document verbatim.
//   2. The factored crown tupleDestroy→createElement[const]→groupBy[{}]
//      over select*(E): a query whose predicate set IMPLIES a cached
//      view's (every cached conjunct implied by some incoming conjunct)
//      is served by re-filtering the snapshot root's children with the
//      incoming selects — σ_{Pi}(σ_{Pc}(S)) = σ_{Pi}(S) when Pi ⇒ Pc,
//      and re-applying implied filters is idempotent.
//
// Because `CompareAtoms` is mixed-mode (numeric when both sides parse as
// numbers, else lexicographic), single-conjunct implication is only
// claimed when it holds under BOTH constant orderings and both constants
// agree on numeric-ness; anything else is an honest subsumption_reject.
#ifndef MIX_MEDIATOR_ANSWER_VIEW_CACHE_H_
#define MIX_MEDIATOR_ANSWER_VIEW_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/binding_stream.h"
#include "core/bounded_cache.h"
#include "core/navigable.h"
#include "mediator/plan.h"
#include "xml/doc_navigable.h"
#include "xml/tree.h"

namespace mix::mediator {

/// Reserved SourceRegistry name under which a view-served session's
/// snapshot navigable is registered (rewritten plans reference it).
inline constexpr char kAnswerViewSourceName[] = "__answer_view";

/// Per-node byte-accounting overhead added to each snapshot label
/// (arena node + child-vector bookkeeping), mirroring SourceCache's
/// entry-overhead convention.
inline constexpr int64_t kViewNodeOverheadBytes = 64;

/// One stripped var-constant conjunct of a view descriptor.
struct ViewPredicate {
  std::string var;
  algebra::CompareOp op = algebra::CompareOp::kEq;
  std::string constant;

  bool operator==(const ViewPredicate& o) const {
    return var == o.var && op == o.op && constant == o.constant;
  }
};

/// Canonical descriptor of what a plan computes, for subsumption matching.
/// Computed from the RAW compiled plan (before the optimizer absorbs
/// predicates into wrapper URIs) and cached in PlanCache::Compiled.
struct ViewShape {
  /// False when the plan is not a well-formed tupleDestroy tree (such
  /// plans never participate in view matching).
  bool valid = false;
  /// True when the factored crown matched; enables predicate subsumption
  /// (case 2). Non-factored shapes match identical plans only.
  bool factored = false;
  /// Canonical text of the plan with the transparent project and the top
  /// select-chain over the grouped variable stripped.
  std::string base_key;
  /// The stripped conjuncts (all on `grouped_var`), outermost first.
  std::vector<ViewPredicate> preds;
  // Factored-crown parameters, used to rebuild the residual serving plan.
  std::string root_label;
  std::string create_out;
  std::string group_out;
  std::string grouped_var;
  /// Sorted, deduplicated source names the plan touches.
  std::vector<std::string> sources;
};

/// Computes the view descriptor of a raw (pre-optimization) plan.
ViewShape ComputeViewShape(const PlanNode& raw_plan);

/// True iff (v have.op have.constant) ⇒ (v want.op want.constant) for every
/// value v under CompareAtoms semantics (both numeric and lexicographic
/// constant orderings must agree — see file comment).
bool PredicateImplies(const ViewPredicate& have, const ViewPredicate& want);

/// An immutable published answer. Sessions pin it via shared_ptr, so LRU
/// eviction never invalidates an in-flight reader.
struct AnswerSnapshot {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<xml::DocNavigable> nav;
  ViewShape shape;
};

class AnswerViewCache {
 public:
  struct Options {
    /// Total snapshot byte budget; <= 0 disables the cache entirely (the
    /// `answer_view_cache_bytes = 0` A/B baseline).
    int64_t byte_budget = 0;
  };

  /// A subsumption-match result: null snapshot = miss; on a hit, `plan`
  /// is the rewritten serving plan over kAnswerViewSourceName.
  struct Match {
    std::shared_ptr<const AnswerSnapshot> snapshot;
    PlanPtr plan;
  };

  /// `generations` (not owned): the registry the service's tiers share.
  explicit AnswerViewCache(Options options,
                           GenerationRegistry* generations = nullptr);
  AnswerViewCache(const AnswerViewCache&) = delete;
  AnswerViewCache& operator=(const AnswerViewCache&) = delete;

  bool enabled() const { return core_.enabled(); }
  GenerationRegistry& generations() { return core_.generations(); }

  /// Tests `shape` against the live cached descriptors (oldest first per
  /// base key). Counts view_hits/view_misses and subsumption rejects.
  Match TryMatch(const ViewShape& shape);

  /// Publishes a navigation-complete answer export under `shape`, derived
  /// under the donor session's `pins`. Rejects (with a counted reason,
  /// never an abort) degraded or truncated exports, stale or missing pins,
  /// duplicates, and over-budget snapshots; evicts LRU entries to fit the
  /// byte budget.
  void Publish(const ViewShape& shape,
               const std::vector<SubtreeEntry>& entries,
               const GenerationRegistry::Pins& pins);

  /// Freshness: bumps the source's generation in the registry; no view
  /// derived from the old generation matches again.
  void InvalidateSource(const std::string& source) {
    core_.generations().Bump(source);
  }

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t publishes = 0;
    int64_t evictions = 0;  ///< to make room, or dropped stale by a bump
    int64_t invalidations = 0;  ///< registry bumps, over all sources
    int64_t bytes = 0;
    int64_t entries = 0;
    /// Match + publish reject counts by reason ("predicate", "absent",
    /// "stale", "degraded", "truncated", "malformed", "budget", ...).
    std::map<std::string, int64_t> rejects;
  };
  Stats stats() const;

 private:
  void Reject(const char* reason) {
    std::lock_guard<std::mutex> lock(rejects_mu_);
    ++rejects_[reason];
  }

  /// Keyed by base_key; a key's entries are its predicate variants.
  BoundedCache<std::shared_ptr<const AnswerSnapshot>> core_;
  mutable std::mutex rejects_mu_;
  std::map<std::string, int64_t> rejects_;
};

}  // namespace mix::mediator

#endif  // MIX_MEDIATOR_ANSWER_VIEW_CACHE_H_
