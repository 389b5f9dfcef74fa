#include "mediator/plan_cache.h"

#include <cctype>

#include "mediator/translate.h"

namespace mix::mediator {

std::string CanonicalXmasKey(const std::string& xmas_text) {
  // Mirrors the lexer's surface rules (xmas/parser.cc): whitespace
  // separates tokens, `%` comments run to end of line, single quotes
  // delimit string literals (no escapes; a quote always toggles).
  std::string out;
  out.reserve(xmas_text.size());
  bool in_quote = false;
  bool pending_space = false;
  for (size_t i = 0; i < xmas_text.size(); ++i) {
    char c = xmas_text[i];
    if (in_quote) {
      out.push_back(c);
      if (c == '\'') in_quote = false;
      continue;
    }
    if (c == '%') {
      while (i + 1 < xmas_text.size() && xmas_text[i + 1] != '\n') ++i;
      pending_space = true;  // the comment ran to a line break
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(c);
    if (c == '\'') in_quote = true;
  }
  return out;
}

PlanCache::PlanCache(Options options)
    : options_(std::move(options)),
      fingerprint_(passes::OptimizerFingerprint(options_.optimizer)),
      // Plans are pure LRU, each costing 1; no generation makes one stale.
      core_(options_.capacity, Admission::kLru, /*generations=*/nullptr) {}

Result<std::shared_ptr<const PlanNode>> PlanCache::GetOrCompile(
    const std::string& xmas_text) {
  auto entry = GetOrCompileEntry(xmas_text);
  if (!entry.ok()) return entry.status();
  return entry.value()->plan;
}

Result<std::shared_ptr<const PlanCache::Compiled>> PlanCache::GetOrCompileEntry(
    const std::string& xmas_text) {
  // The fingerprint participates in the key so that a cache whose optimizer
  // config changes (capability registration) can never serve a shape
  // produced under the old config.
  const std::string key = fingerprint_ + '\n' + CanonicalXmasKey(xmas_text);
  // One miss per compile, also with the cache off (capacity <= 0).
  std::shared_ptr<const Compiled> hit;
  if (core_.Find(key, /*count=*/true, &hit)) return hit;
  // Compile (and optimize) outside the lock: one slow compile must not
  // stall Opens of other queries (the overlap test pins this down).
  Result<PlanPtr> plan = CompileXmas(xmas_text);
  if (!plan.ok()) return plan.status();
  PlanPtr owned = std::move(plan).ValueOrDie();

  auto compiled = std::make_shared<Compiled>();
  compiled->view_shape = ComputeViewShape(*owned);
  Result<passes::OptimizeReport> report =
      passes::OptimizePlan(&owned, options_.optimizer);
  // An optimizer failure is never a compile failure: serve the correct
  // unoptimized plan (OptimizePlan left `owned` untouched) with an empty
  // report rather than bouncing the query.
  if (report.ok()) compiled->report = std::move(report).ValueOrDie();
  compiled->plan = std::shared_ptr<const PlanNode>(std::move(owned));

  std::shared_ptr<const Compiled> shared = std::move(compiled);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shared->report.total() > 0) {
      ++optimized_;
      rewrites_ += shared->report.total();
      for (const auto& ps : shared->report.passes) {
        if (ps.applied > 0) pass_applied_[ps.name] += ps.applied;
      }
    }
  }
  // First insert wins.
  core_.Insert(key, /*cost=*/1, {}, [&shared] { return shared; });
  return shared;
}

PlanCache::Stats PlanCache::stats() const {
  const CacheStats core = core_.stats();
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = core.hits;
  s.misses = core.misses;
  s.entries = core.entries;
  s.optimized = optimized_;
  s.rewrites = rewrites_;
  s.pass_applied = pass_applied_;
  return s;
}

}  // namespace mix::mediator
