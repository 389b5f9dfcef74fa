// Navigational-complexity analysis (paper Section 2, Def. 2).
//
// Classifies a plan by the guarantee a lazy mediator for it can give about
// the number of source navigations needed per client navigation:
//
//   * bounded browsable — there is a function f with |source navigation|
//     ≤ f(|client navigation|), independent of the data (Example 1's
//     concatenation view);
//   * (unbounded) browsable — a prefix of the answer may be computable from
//     a prefix of the input, but no data-independent bound exists
//     (label-selection views);
//   * unbrowsable — some client navigation forces access to at least one
//     input list in its entirety (reordering by an arithmetic attribute).
//
// The classification depends on the available command set NC: with the
// sibling-selection command σ, a label-chain getDescendants becomes
// bounded browsable (end of Section 2) — expose that through
// `sigma_available`.
#ifndef MIX_MEDIATOR_BROWSABILITY_H_
#define MIX_MEDIATOR_BROWSABILITY_H_

#include <string>
#include <vector>

#include "mediator/plan.h"

namespace mix::mediator {

enum class Browsability {
  kBoundedBrowsable = 0,
  kBrowsable = 1,
  kUnbrowsable = 2,
};

const char* BrowsabilityName(Browsability b);

struct BrowsabilityReport {
  Browsability cls = Browsability::kBoundedBrowsable;
  /// One line per operator that caused a (de)classification.
  std::vector<std::string> reasons;
};

struct BrowsabilityOptions {
  /// Sources answer σ natively (the extended command set of Section 2).
  bool sigma_available = false;
};

BrowsabilityReport Classify(const PlanNode& plan,
                            const BrowsabilityOptions& options);

/// Single-operator classification: the browsability contribution of `node`
/// alone (children are NOT visited). `sigma_available` says whether the
/// source feeding this operator's navigations answers σ natively — the
/// optimizer's analysis (ir.h) resolves it per source from wrapper
/// capabilities rather than globally. On a worsening result, `*reason` (if
/// non-null) receives the explanatory line that Classify would have
/// recorded.
Browsability ClassifyOperator(const PlanNode& node, bool sigma_available,
                              std::string* reason);

}  // namespace mix::mediator

#endif  // MIX_MEDIATOR_BROWSABILITY_H_
