// Optimizer analysis over the XMAS algebra (DESIGN.md §6).
//
// The optimizer passes reshape the PlanNode tree itself. What they keep
// asking about each node lives beside the tree, in an AnnotationTable keyed
// by node address, so a plan carries no optimizer state:
//
//   * schema       — the node's output binding schema (ComputeSchema's
//                    per-operator transition, folded once bottom-up);
//   * var_source   — which registered source each schema variable's value
//                    navigates into ("" = synthesized by a constructor);
//   * sources      — sorted set of source names in the subtree;
//   * cls          — browsability of the subtree, with σ-capability
//                    resolved per source;
//   * fanout       — crude cardinality estimate for join ordering.
//
// Passes move subtrees freely (a moved node keeps its address, so its
// entry stays valid) and call AnalyzeIr() to rebuild the table;
// PassManager does this between passes, so a pass may trust the table on
// entry.
#ifndef MIX_MEDIATOR_IR_H_
#define MIX_MEDIATOR_IR_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/source_capability.h"
#include "mediator/browsability.h"
#include "mediator/plan.h"

namespace mix::mediator {

/// The facts AnalyzeIr records for one plan node.
struct Annotation {
  /// Output schema. Empty for the kTupleDestroy root (document, not
  /// bindings).
  algebra::VarList schema;
  /// schema var -> source name whose values it navigates, "" if the value
  /// is synthesized (constructor / groupBy output).
  std::map<std::string, std::string> var_source;
  /// Sorted, deduplicated source names appearing in this subtree.
  std::vector<std::string> sources;
  /// Browsability of the whole subtree.
  Browsability cls = Browsability::kBoundedBrowsable;
  /// Estimated output cardinality (arbitrary units; only ratios matter).
  double fanout = 1.0;
};

using AnnotationTable = std::unordered_map<const PlanNode*, Annotation>;

/// Clears `*table` and annotates every node of `root` bottom-up. Fails if
/// the tree is not schema-valid (a pass broke variable scoping — the pass
/// must revert). `caps` maps source name -> capability; missing sources
/// get the default (no σ, no pushdown).
Status AnalyzeIr(const PlanNode& root,
                 const std::map<std::string, SourceCapability>& caps,
                 AnnotationTable* table);

/// Renders `root` as plan text with a trailing
/// "% schema=... src=... cls=... fanout=..." comment per line from `table`
/// (still parseable: plan_text strips % comments).
std::string DumpIr(const PlanNode& root, const AnnotationTable& table);

/// Number of times `var` is consumed as an *input* anywhere in the tree
/// (predicates, anchors, group/sort/project lists, constructor arguments,
/// the tupleDestroy root variable). Schema pass-through does not count.
int CountVarUses(const PlanNode& root, const std::string& var);

/// The variables `op` reads from its input bindings.
std::vector<std::string> InputVars(const PlanNode& op);

}  // namespace mix::mediator

#endif  // MIX_MEDIATOR_IR_H_
