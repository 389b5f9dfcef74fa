// Compiled-plan cache for the mixd session-open path (DESIGN.md §4
// "Shared source-fragment & plan caches").
//
// Opening a session compiles XMAS text to an algebra plan
// (mediator::CompileXmas) before instantiating the lazy mediators. The
// plan is a pure description of the query — no per-session state — so N
// sessions opening the same view can share one immutable PlanNode tree
// instead of re-parsing and re-translating N times. The cache keys on a
// canonical form of the query text (whitespace runs collapsed and `%`
// comments stripped, both only OUTSIDE single-quoted literals), so
// trivially reformatted copies of one query share an entry while queries
// differing inside a string literal never do.
//
// Concurrency: lookups and inserts take a small mutex; compilation runs
// OUTSIDE it, so one slow compile never stalls unrelated Opens. Concurrent
// misses of the same text may compile twice — first insert wins, both get
// equivalent plans. Failures are never cached (the error message should
// come from a fresh compile, and a transiently broken query must not stick).
#ifndef MIX_MEDIATOR_PLAN_CACHE_H_
#define MIX_MEDIATOR_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/status.h"
#include "mediator/answer_view_cache.h"
#include "mediator/passes/pass.h"
#include "mediator/plan.h"

namespace mix::mediator {

/// Canonical plan-cache key for `xmas_text`: whitespace runs become one
/// space and `%` line comments are dropped, except inside single-quoted
/// string literals; leading/trailing space is trimmed.
std::string CanonicalXmasKey(const std::string& xmas_text);

class PlanCache {
 public:
  struct Options {
    /// Max cached plans (LRU beyond that); <= 0 disables caching (every
    /// call compiles and counts a miss).
    int64_t capacity = 64;
    /// Optimizer configuration applied after compilation. The cache key
    /// mixes in OptimizerFingerprint(optimizer), so two caches — or one
    /// cache reconfigured across restarts — never serve a shape produced
    /// under a different config.
    passes::OptimizerOptions optimizer;
  };

  /// A cached compilation: the (possibly optimized) plan plus the pass
  /// report that produced it. `report` is all-zero when the optimizer
  /// changed nothing or failed. `view_shape` is the answer-view descriptor
  /// computed from the RAW translator output — it must be taken before
  /// optimization, because wrapper pushdown absorbs predicates into
  /// source URIs where subsumption matching can no longer see them.
  struct Compiled {
    std::shared_ptr<const PlanNode> plan;
    passes::OptimizeReport report;
    ViewShape view_shape;
  };

  explicit PlanCache(Options options);
  PlanCache() : PlanCache(Options()) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The cached plan for `xmas_text`, compiling (and optimizing, per
  /// Options::optimizer) on miss. The returned plan is shared and
  /// immutable — instantiate it, never mutate it.
  Result<std::shared_ptr<const PlanNode>> GetOrCompile(
      const std::string& xmas_text);

  /// Like GetOrCompile but also exposes the optimizer report — the
  /// session-open path uses it to bump per-pass metrics without recording
  /// cache hits as fresh rewrites (hits carry the original report).
  Result<std::shared_ptr<const Compiled>> GetOrCompileEntry(
      const std::string& xmas_text);

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t entries = 0;
    /// Compiles whose plan the optimizer actually changed (total() > 0).
    int64_t optimized = 0;
    /// Total rewrites across those compiles.
    int64_t rewrites = 0;
    /// Per-pass rewrite totals across all fresh compiles.
    std::map<std::string, int64_t> pass_applied;
  };
  Stats stats() const;

 private:
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const Compiled>>>;

  Options options_;
  std::string fingerprint_;  ///< OptimizerFingerprint(options_.optimizer)
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t optimized_ = 0;
  int64_t rewrites_ = 0;
  std::map<std::string, int64_t> pass_applied_;
};

}  // namespace mix::mediator

#endif  // MIX_MEDIATOR_PLAN_CACHE_H_
